"""Slow exact oracles: the earlier dense builders, kept only to test the
sparse ones against.

* ``delta_by_values`` evaluates the Yamaguti coboundary on one cochain by
  contracting nested tensors, and ``columns_by_units`` builds a matrix by
  applying it to every unit cochain in turn.
* ``phi_matrix_by_kron`` builds the comparison map from Kronecker chains
  (``kron``) of wedge-square matrices (``wedge_vector``, dense u ^ v).
* ``differential_matrix_by_units`` stacks the cone from dense row lists.
* ``dense_rref`` is Gauss-Jordan elimination on full rows, and
  ``dense_matmul`` the product over every entry; ``dense_lincomb``,
  ``dense_apply``, ``dense_transpose`` and ``dense_block_diag`` are the
  other matrix operations, entry by entry on row-major dense entries.
* ``dense_ly_identities`` and ``dense_reynolds_identities`` are the identity
  battery on dense vectors, and ``dense_ly_report``,
  ``verify_ly_axioms_dense`` and ``verify_reynolds_dense`` (order 0) and
  ``verify_deformation_dense`` run it;
  ``derivation_check_dense``, ``verify_rep_dense``,
  ``verify_reynolds_rep_dense`` and ``apply_equivalence_dense`` are the
  verifiers and the transport written with dense vectors and whole-matrix
  sums and products.  ``inverse_by_matrices`` is the earlier truncated
  inverse of a formal isomorphism, its Neumann recursion on whole
  ``Matrix`` sums and products.
* ``first_failure`` is the earlier scan of one identity over basis tuples,
  ``orbit_tuples`` the earlier orbit representatives it scanned, and
  ``expand`` the earlier sparse multilinear expansion of a nested table.
* ``orbit_ly_identities`` is the earlier sparse LY1-LY6, one orbit tuple at
  a time, each product a ``contract`` of nested integer tables that it
  walks from the tensors itself (``integer_view``), and
  ``verify_ly_axioms_by_orbits`` runs it.
* ``d_table_dense``, ``induced_rep_dense`` and ``descendant_algebra_dense``
  build the derived pair map, the induced representation and the
  descendant brackets from whole-matrix sums and products and dense
  vectors.
* ``morphism_failure_dense`` compares the image of each bracket of basis
  vectors with the bracket of their images, as dense vectors, and
  ``leibniz_failure_dense`` checks the left Leibniz identity of a star
  product on every basis triple the same way.
* ``antisymmetry_failure_scan`` compares every entry with the negation of
  its swapped partner on every basis tuple, for entries of any type, and
  ``antisymmetry_failure_walk`` is the earlier dense walk over i <= j that
  compares numerators and denominators.
* ``sparse_tensor_by_lines`` is the earlier reader of sparse ``.lyr``
  lines: each line's indices (``index_by_regex``, the integer rule as a
  regular expression) and value parsed on their own, both images set one
  at a time with the line of each cell kept, and a deformation's orders
  filtered out of the whole afterwards.  ``slot_product_unskipped`` is the
  truncated slot product that visits every map order, and
  ``cells_by_walk`` lists the cells of a tensor times a denominator by
  walking its nested view of Fractions.
* ``base_data_by_solves``, ``extract_rep_by_solves`` and
  ``extract_cocycle_by_solves`` read an extension through section lifts,
  solving for the module coordinates of each vector (``module_coords``), and
  ``assemble_extension_by_cases`` fills in the total structure cell by cell.
* ``vec_add``, ``vec_sub``, ``vec_scale`` and ``zero_vector`` are dense
  vector arithmetic on tuples of Fractions, and ``rho_at`` and
  ``theta_at`` extend rho and theta to general elements by linearity; the
  dense oracles are written with them.
* ``build_parser_by_hand`` is the earlier CLI parser, every command's
  arguments written out in place, and ``main_by_full_parser`` the earlier
  ``cli.main``, which parses every call with it.

The sparse builders must give exactly the same matrices (the integer
builders of the representation layer the same D, induced maps and
descendant brackets), the sparse
elimination exactly the same reduced rows and pivots, and the sparse
identity kernel exactly the same reports and transported series; the block
readers and the sparse assembly must agree with the extension oracles.
"""

import argparse
import re
import sys
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import lcm

from lyreynolds import __version__, cli
from lyreynolds.algebra import (
    LyAlgebra,
    _freeze,
    apply_binary,
    apply_ternary,
    bracket2,
    bracket3,
    dense_vector,
)
from lyreynolds.cohomology import (
    cochain_dim,
    flatten,
    unflatten,
    wedge_dim,
    wedge_pairs,
)
from lyreynolds.deformation import TruncatedDeformation
from lyreynolds.extension import ExtensionCocycle
from lyreynolds.errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidInput,
    MissingModuleOp,
    OrderMismatch,
    LyError,
    ParseError,
    ShapeMismatch,
)
from lyreynolds.fileformat import _rational
from lyreynolds.linalg import (
    Matrix,
    add_scaled,
    block_diag,
    lincomb,
    position,
    solve,
    unit_vector,
)
from lyreynolds.reporting import AxiomReport, Check, OrderReport
from lyreynolds.representation import Representation, induced_rep
from lyreynolds.reynolds import ReynoldsOperator, descendant_algebra


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    c = Fraction(c)
    return tuple(c * a for a in v)


def zero_vector(n: int):
    return (Fraction(0),) * n


def rho_at(rep, x) -> Matrix:
    """rho of a general element, by linearity."""
    return lincomb(x, rep.rho, Matrix.zero(rep.module_dim, rep.module_dim))


def theta_at(rep, x, y) -> Matrix:
    """theta of a general pair, by bilinearity."""
    zero = Matrix.zero(rep.module_dim, rep.module_dim)
    return lincomb(x, [lincomb(y, row, zero) for row in rep.theta], zero)


def orbit_tuples(dim: int, shape):
    """The basis tuples that decide an identity antisymmetric within groups
    of consecutive slots: ``shape`` lists the group sizes, and the tuples
    yielded are those strictly increasing within each group, in product
    order.  ``(2, 1)`` gives every (i, j, k) with i < j; a shape of ones
    gives every tuple.  There are prod C(dim, k) of them, k over ``shape``.

    Why they suffice: LyAlgebra and TruncatedDeformation enforce or certify
    the antisymmetry of both brackets at every order, so each residual given a
    shape is zero on a tuple that repeats an index within a group and
    changes sign under a swap within a group.  The failing tuples are
    therefore a union of orbits of those swaps, and the increasing tuple of
    an orbit is its lexicographic minimum, because the groups are
    consecutive slots.  The first failure over these tuples, with its
    residual, is the first failure in product order over all of them (see
    ``algebra.first_failing_tuple``).  The earlier orbit scans read them;
    LY1-LY6 are written onto them (see ``algebra._ly_identities``).
    """
    return (tuple(chain.from_iterable(groups))
            for groups in product(*(combinations(range(dim), k) for k in shape)))


def first_failure(name: str, tuples, residual_fn, is_zero, finish=None) -> Check:
    """Check one identity over ``tuples``: the witness is the first tuple,
    in iteration order, whose residual ``residual_fn(*tuple)`` is not zero.
    ``finish``, when given, turns that residual into the value the report
    keeps (a sparse residual into a vector or a matrix).

    The tuples may be orbit representatives (:func:`orbit_tuples`): for an
    identity antisymmetric within groups of slots, the tuples increasing
    within each group, in product order.  The witness is then still the
    lexicographically first failing basis tuple of all of them."""
    for tup in tuples:
        r = residual_fn(*tup)
        if not is_zero(r):
            return Check(name, False, tup, r if finish is None else finish(r))
    return Check(name, True)


def _cyclic(triple):
    x, y, z = triple
    return ((x, y, z), (z, x, y), (y, z, x))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _eval_slots(tensor, slots, leaf_len):
    """Contract a nested tensor against one coefficient vector per slot."""
    out = [Fraction(0)] * leaf_len

    def rec(node, si, coeff):
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


def wedge_vector(n: int, u, v):
    """Coordinates of u ^ v over the wedge basis."""
    return tuple(u[i] * v[j] - u[j] * v[i] for (i, j) in wedge_pairs(n))


def delta_by_values(algebra, rep, c):
    """The Yamaguti coboundary of one cochain, evaluated slot by slot."""
    n, m = algebra.dim, rep.module_dim
    pairs = wedge_pairs(n)
    w = len(pairs)
    dd = d_table_dense(algebra, rep)
    rho, theta = rep.rho, rep.theta
    b, t = algebra.binary, algebra.ternary
    cf, cg = c.f, c.g

    def h_of(vec):
        acc = zero_vector(m)
        for k, coef in enumerate(vec):
            if coef:
                acc = vec_add(acc, vec_scale(coef, cg[k]))
        return acc

    if c.degree == 1:
        f_out = []
        for (i, j) in pairs:
            val = vec_add(rho[i].apply(cg[j]), vec_scale(-1, rho[j].apply(cg[i])))
            f_out.append(vec_add(val, vec_scale(-1, h_of(b[i][j]))))
        g_out = []
        for (i, j) in pairs:
            for z in range(n):
                val = dd[i][j].apply(cg[z])
                val = vec_add(val, theta[j][z].apply(cg[i]))
                val = vec_add(val, vec_scale(-1, theta[i][z].apply(cg[j])))
                g_out.append(vec_add(val, vec_scale(-1, h_of(t[i][j][z]))))
        return unflatten(2, n, m, [x for v in f_out + g_out for x in v])

    q = c.degree - 1
    sign_q = Fraction(-1) ** q
    unit_w = [unit_vector(w, k) for k in range(w)]
    unit_l = [unit_vector(n, z) for z in range(n)]

    def eval_f(slots):
        return _eval_slots(cf, slots, m)

    def eval_g(slots, zvec):
        return _eval_slots(cg, list(slots) + [zvec], m)

    def substituted(ks, kk, ll):
        xk, yk = pairs[ks[kk]]
        xl, yl = pairs[ks[ll]]
        s = vec_add(wedge_vector(n, t[xk][yk][xl], unit_l[yl]),
                    wedge_vector(n, unit_l[xl], t[xk][yk][yl]))
        return [s if pos == ll else unit_w[ks[pos]]
                for pos in range(len(ks)) if pos != kk]

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

    return unflatten(c.degree + 1, n, m, [x for v in f_vals + g_vals for x in v])


def columns_by_units(apply_fn, degree, n, m):
    """Matrix of a coboundary: its values on the unit cochains, as columns."""
    dim_in = cochain_dim(degree, n, m)
    cols = [flatten(apply_fn(unflatten(degree, n, m, unit_vector(dim_in, pos))))
            for pos in range(dim_in)]
    return Matrix.from_columns(cols, cochain_dim(degree + 1, n, m))


def kron(a, b):
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


def _wedge_square_matrix(n, p):
    cols = [wedge_vector(n, p.column(i), p.column(j)) for (i, j) in wedge_pairs(n)]
    return Matrix.from_columns(cols, wedge_dim(n))


def _wedge_mixed_matrix(n, p, q):
    cols = [vec_add(wedge_vector(n, p.column(i), q.column(j)),
                    wedge_vector(n, q.column(i), p.column(j)))
            for (i, j) in wedge_pairs(n)]
    return Matrix.from_columns(cols, wedge_dim(n))


def phi_matrix_by_kron(algebra, op, rep, degree):
    """The comparison map from Kronecker chains of wedge-square matrices."""
    n, m = algebra.dim, rep.module_dim
    tmat, tv, weight = op.matrix, rep.module_op, op.weight
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
    f_block = kron(all_t_f, im) - dense_matmul(post_f, kron(inner_f, im))

    tt = tmat.transpose()
    all_t_g = kron(all_t_f, tt)
    inner_g = kron(all_t_f, Matrix.identity(n))
    for t in range(q):
        inner_g = inner_g + kron(mixed_f[t], tt)
    inner_g = inner_g + all_t_g.scale(2 * q * weight)
    post_g = kron(Matrix.identity(all_t_g.rows), tv)
    g_block = kron(all_t_g, im) - dense_matmul(post_g, kron(inner_g, im))
    return block_diag([f_block, g_block])


@cache
def differential_matrix_by_units(algebra, op, rep, which, degree):
    """The differential of one complex from unit cochains and Kronecker
    chains, the cone stacked from dense rows.  Cached: each costs seconds
    at degree 3 over a 3-dimensional base."""
    n, m = algebra.dim, rep.module_dim
    if which == "ly":
        return columns_by_units(lambda c: delta_by_values(algebra, rep, c), degree, n, m)
    if which == "ro":
        return differential_matrix_by_units(
            descendant_algebra(algebra, op), op, induced_rep(algebra, op, rep), "ly", degree)
    dlt = differential_matrix_by_units(algebra, op, rep, "ly", degree)
    ph = phi_matrix_by_kron(algebra, op, rep, degree)
    if degree == 1:
        return Matrix.from_rows(dlt.to_rows() + ph.scale(-1).to_rows(), dlt.cols)
    prt = differential_matrix_by_units(algebra, op, rep, "ro", degree - 1)
    tail_dim = cochain_dim(degree - 1, n, m)
    rows = [list(dlt.row(i)) + [Fraction(0)] * tail_dim for i in range(dlt.rows)]
    rows += [[-x for x in ph.row(i)] + [-x for x in prt.row(i)] for i in range(ph.rows)]
    return Matrix.from_rows(rows, dlt.cols + tail_dim)


def dense_matmul(a, b):
    """The product of a and b, scanning every entry of a row of a."""
    out = []
    for i in range(a.rows):
        row = a.row(i)
        for j in range(b.cols):
            s = Fraction(0)
            for k in range(a.cols):
                if row[k]:
                    s += row[k] * b.entries[k * b.cols + j]
            out.append(s)
    return Matrix(a.rows, b.cols, tuple(out))


def dense_lincomb(coeffs, mats, rows, cols):
    """sum_k coeffs[k] mats[k] of rows x cols matrices, entry by entry."""
    out = [Fraction(0)] * (rows * cols)
    for c, m in zip(coeffs, mats):
        out = [x + c * y for x, y in zip(out, m.entries)]
    return Matrix(rows, cols, tuple(out))


def dense_apply(m, v):
    """m times the column vector v, over every entry of m."""
    e = m.entries
    return tuple(sum((e[i * m.cols + j] * v[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def dense_transpose(m):
    return Matrix(m.cols, m.rows, tuple(m.entries[i * m.cols + j]
                                        for j in range(m.cols) for i in range(m.rows)))


def dense_block_diag(mats):
    """The block diagonal matrix of ``mats``, from full rows."""
    cols = sum(m.cols for m in mats)
    rows, c0 = [], 0
    for m in mats:
        for i in range(m.rows):
            rows.append([Fraction(0)] * c0 + list(m.entries[i * m.cols:(i + 1) * m.cols])
                        + [Fraction(0)] * (cols - c0 - m.cols))
        c0 += m.cols
    return Matrix(len(rows), cols, tuple(x for row in rows for x in row))


def dense_rref(m):
    """Reduced row echelon form on full rows: (all rows, pivot columns)."""
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        src = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if src is None:
            continue
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


# ---------------------------------------------------------------------------
# the dense identity battery and the verifiers written with dense vectors and
# dense matrix arithmetic

def is_zero_vector(v):
    return all(a == 0 for a in v)


def _axiom_report(names, identities, dim):
    """One check per named ``(arity, residual)`` identity over all basis
    tuples of its arity, on dense residual vectors."""
    return AxiomReport(tuple(
        first_failure(name, product(range(dim), repeat=arity), fn, is_zero_vector)
        for name, (arity, fn) in zip(names, identities)))


def dense_ly_identities(F, G, n: int):
    """LY1-LY6 at order ``n`` of the coefficient series F_0, F_1, ... (binary
    tensors) and G_0, G_1, ... (ternary tensors), as ``(arity, residual)``
    pairs.  A residual maps a basis tuple to the order-n coefficient of
    LHS - RHS, each product summed over the splittings i + (n - i).

    Order 0 of ``((binary,), (ternary,))`` is the undeformed algebra, and a
    deformation's order n is the same identity at higher order, which is why
    the algebra verifier and the deformation verifier share this battery.
    """
    dim = len(F[0])
    unit = [unit_vector(dim, x) for x in range(dim)]

    def cyclic_binary(x, y, z):
        acc = zero_vector(dim)
        for (a, b, c) in _cyclic((x, y, z)):
            for i in range(n + 1):
                acc = vec_add(acc, apply_binary(F[i], F[n - i][a][b], unit[c]))
            acc = vec_add(acc, G[n][a][b][c])
        return acc

    def cyclic_mixed(x, y, z, a):
        acc = zero_vector(dim)
        for (p, q, r) in _cyclic((x, y, z)):
            for i in range(n + 1):
                acc = vec_add(acc, apply_ternary(G[i], F[n - i][p][q], unit[r], unit[a]))
        return acc

    def derivation_binary(a, b, x, y):
        acc = zero_vector(dim)
        for i in range(n + 1):
            acc = vec_add(acc, apply_ternary(G[i], unit[a], unit[b], F[n - i][x][y]))
            acc = vec_sub(acc, apply_binary(F[i], G[n - i][a][b][x], unit[y]))
            acc = vec_sub(acc, apply_binary(F[i], unit[x], G[n - i][a][b][y]))
        return acc

    def derivation_ternary(a, b, x, y, z):
        acc = zero_vector(dim)
        for i in range(n + 1):
            acc = vec_add(acc, apply_ternary(G[i], unit[a], unit[b], G[n - i][x][y][z]))
            acc = vec_sub(acc, apply_ternary(G[i], G[n - i][a][b][x], unit[y], unit[z]))
            acc = vec_sub(acc, apply_ternary(G[i], unit[x], G[n - i][a][b][y], unit[z]))
            acc = vec_sub(acc, apply_ternary(G[i], unit[x], unit[y], G[n - i][a][b][z]))
        return acc

    return ((2, lambda i, j: vec_add(F[n][i][j], F[n][j][i])),
            (3, lambda i, j, k: vec_add(G[n][i][j][k], G[n][j][i][k])),
            (3, cyclic_binary), (4, cyclic_mixed),
            (4, derivation_binary), (5, derivation_ternary))


def dense_reynolds_identities(F, G, Tt, w, n: int):
    """The weighted binary and ternary operator identities at order ``n`` of
    the series F (binary tensors), G (ternary tensors) and Tt (operator
    matrices), as ``(arity, residual)`` pairs.

    Each residual is the order-n coefficient of LHS - RHS: the products are
    summed over three-part (plus one weighted four-part) and four-part (plus
    one five-part) splittings of n.  Order 0 of ``((binary,), (ternary,),
    (T,))`` is the undeformed operator.
    """
    dim = len(F[0])
    unit = [unit_vector(dim, x) for x in range(dim)]
    t_img = [[t.column(x) for x in range(dim)] for t in Tt[:n + 1]]
    comps3, comps4, comps5 = (list(_compositions(n, parts)) for parts in (3, 4, 5))

    def minus_ts(acc, inner):
        """acc - sum_i T_i(inner[i]): one application of each T_i."""
        for i, v in enumerate(inner):
            acc = vec_sub(acc, Tt[i].apply(v))
        return acc

    def binary(x, y):
        # F_j(T_k x, T_l y) for every j + k + l <= n, each computed once
        all_t = {(j, k, l): apply_binary(F[j], t_img[k][x], t_img[l][y])
                 for (_, j, k, l) in comps4}
        acc = zero_vector(dim)
        inner = [zero_vector(dim)] * (n + 1)
        for (i, j, k) in comps3:
            acc = vec_add(acc, all_t[i, j, k])
            inner[i] = vec_add(inner[i], vec_add(apply_binary(F[j], t_img[k][x], unit[y]),
                                                 apply_binary(F[j], unit[x], t_img[k][y])))
        for (i, j, k, l) in comps4:
            inner[i] = vec_add(inner[i], vec_scale(w, all_t[j, k, l]))
        return minus_ts(acc, inner)

    def ternary(x, y, z):
        # G_j(T_k x, T_l y, T_m z) for every j + k + l + m <= n, each once
        all_t = {(j, k, l, m): apply_ternary(G[j], t_img[k][x], t_img[l][y], t_img[m][z])
                 for (_, j, k, l, m) in comps5}
        acc = zero_vector(dim)
        inner = [zero_vector(dim)] * (n + 1)
        for (i, j, k, l) in comps4:
            acc = vec_add(acc, all_t[i, j, k, l])
            part = apply_ternary(G[j], unit[x], t_img[k][y], t_img[l][z])
            part = vec_add(part, apply_ternary(G[j], t_img[k][x], unit[y], t_img[l][z]))
            part = vec_add(part, apply_ternary(G[j], t_img[k][x], t_img[l][y], unit[z]))
            inner[i] = vec_add(inner[i], part)
        for (i, j, k, l, m) in comps5:
            inner[i] = vec_add(inner[i], vec_scale(2 * w, all_t[j, k, l, m]))
        return minus_ts(acc, inner)

    return ((2, binary), (3, ternary))


def verify_reynolds_dense(algebra, op):
    """The weighted binary and ternary identities of op on all basis tuples:
    order 0 of :func:`dense_reynolds_identities`."""
    if op.dim != algebra.dim:
        raise DimMismatch("operator side != algebra dim")
    return _axiom_report(("reynolds-binary", "reynolds-ternary"),
                         dense_reynolds_identities((algebra.binary,), (algebra.ternary,),
                                                   (op.matrix,), op.weight, 0),
                         algebra.dim)


def verify_deformation_dense(algebra, op, deformation):
    """Check every axiom of the deformed structure order by order.

    At each order n the report covers: antisymmetry of the coefficients, the
    four bracket compatibility identities summed over the coefficient
    splittings i + j = n, and the two weighted operator identities summed
    over three-part (plus one weighted four-part) and four-part (plus one
    five-part) splittings.  Order 0 is the battery of the undeformed
    verifiers under other names: LY1-LY6 are the six bracket checks, and
    reynolds-binary/-ternary are operator-binary/-ternary.
    """
    n_dim = algebra.dim
    if deformation.dim != n_dim:
        raise ShapeMismatch("deformation tensors do not match the algebra dimension")
    if op.dim != n_dim:
        raise DimMismatch("operator does not match the algebra dimension")
    if deformation.F[0] != algebra.binary or deformation.G[0] != algebra.ternary \
            or deformation.Tt[0] != op.matrix:
        raise InvalidInput("base coefficients must equal the undeformed structure")

    F, G, Tt = deformation.F, deformation.G, deformation.Tt
    names = ("antisymmetry-binary", "antisymmetry-ternary", "cyclic-binary",
             "cyclic-mixed", "derivation-binary", "derivation-ternary",
             "operator-binary", "operator-ternary")
    return OrderReport(tuple(
        _axiom_report(names, dense_ly_identities(F, G, n)
                      + dense_reynolds_identities(F, G, Tt, op.weight, n), n_dim)
        for n in range(deformation.order + 1)))


# ---------------------------------------------------------------------------
# the earlier sparse battery: LY1-LY6 evaluated one orbit tuple at a time

def expand(table, c, vecs):
    """The terms of c * table(vecs...) as ``(leaf, coefficient)`` pairs: one
    nesting level of ``table`` is consumed per argument, and each argument
    is a sparse ``(index, value)`` sequence, a basis vector being
    ``((i, 1),)``.  Only nonzero coordinates are visited, and a factor 1
    costs no product."""
    terms = [(table, c)]
    for vec in vecs:
        terms = [(node[i], k if a == 1 else a if k == 1 else a * k)
                 for node, k in terms for i, a in vec]
    return terms


def contract(acc: dict, c, table, vecs) -> None:
    """Add c * table(vecs...) into the ``{coordinate: value}`` dict ``acc``
    (see :func:`expand`); ``vecs`` holds at least one argument."""
    *head, last = vecs
    for node, k in expand(table, c, head):
        for i, a in last:
            add_scaled(acc, k if a == 1 else a if k == 1 else a * k, node[i])


def integer_view(node, depth: int, den: int) -> tuple:
    """den times a tensor with ``depth`` levels of basis indices, den a
    multiple of its denominators, nested over those indices above each
    vector's nonzero ``(coordinate, value)`` pairs: walked from the nested
    view of Fractions."""
    if depth == 0:
        return tuple((k, v.numerator * (den // v.denominator)) for k, v in enumerate(node) if v)
    return tuple(integer_view(child, depth - 1, den) for child in node)


def orbit_ly_identities(F, G, n: int):
    """LY1-LY6 at order ``n`` of the series F and G of binary and ternary
    tensors, as ``(shape, residual, den)`` triples: a residual maps one
    basis tuple to den times the order-n coefficient of LHS - RHS, as a
    ``{coordinate: value}`` dict, each product a :func:`contract` of
    nested integer views (:func:`integer_view`) summed over the splittings
    i + (n - i).  LY3-LY6 are antisymmetric within the groups of their
    shape; LY1 and LY2 are not, so theirs is all ones."""
    den = lcm(*(t.den for t in (*F, *G)))
    f = [integer_view(t, 2, den) for t in F]
    g = [integer_view(t, 3, den) for t in G]
    # g_second[i][x][z] is v -> G_i(e_x, v, e_z); v -> F_i(v, e_c) is
    # -f[i][c] and v -> G_i(v, e_y, e_z) is -g_second[i][y][z]
    g_second = [tuple(tuple(zip(*plane)) for plane in t) for t in g[:n + 1]]
    splits = [(i, n - i) for i in range(n + 1)]

    def summed(*leaves):
        acc = {}
        for leaf in leaves:
            add_scaled(acc, 1, leaf)
        return acc

    def cyclic_binary(x, y, z):
        acc = {}
        for (a, b, c) in _cyclic((x, y, z)):
            for i, j in splits:
                contract(acc, -1, f[i][c], (f[j][a][b],))
            add_scaled(acc, den, g[n][a][b][c])
        return acc

    def cyclic_mixed(x, y, z, a):
        acc = {}
        for (p, q, r) in _cyclic((x, y, z)):
            for i, j in splits:
                contract(acc, -1, g_second[i][r][a], (f[j][p][q],))
        return acc

    def derivation_binary(a, b, x, y):
        acc = {}
        for i, j in splits:
            contract(acc, 1, g[i][a][b], (f[j][x][y],))
            contract(acc, 1, f[i][y], (g[j][a][b][x],))
            contract(acc, -1, f[i][x], (g[j][a][b][y],))
        return acc

    def derivation_ternary(a, b, x, y, z):
        acc = {}
        for i, j in splits:
            contract(acc, 1, g[i][a][b], (g[j][x][y][z],))
            contract(acc, 1, g_second[i][y][z], (g[j][a][b][x],))
            contract(acc, -1, g_second[i][x][z], (g[j][a][b][y],))
            contract(acc, -1, g[i][x][y], (g[j][a][b][z],))
        return acc

    square = den * den
    return (((1, 1), lambda i, j: summed(f[n][i][j], f[n][j][i]), den),
            ((1, 1, 1), lambda i, j, k: summed(g[n][i][j][k], g[n][j][i][k]), den),
            ((3,), cyclic_binary, square), ((3, 1), cyclic_mixed, square),
            ((2, 2), derivation_binary, square),
            ((2, 2, 1), derivation_ternary, square))


def orbit_axiom_report(names, identities, dim: int) -> AxiomReport:
    """One check per named ``(shape, residual, den)`` identity, the first
    failure over the orbit tuples of its shape, written out as the vector
    of exact values."""
    return AxiomReport(tuple(
        first_failure(name, orbit_tuples(dim, shape), fn, lambda acc: not any(acc.values()),
                      lambda acc, den=den: dense_vector(acc, dim, den))
        for name, (shape, fn, den) in zip(names, identities)))


LY_NAMES = ("LY1", "LY2", "LY3", "LY4", "LY5", "LY6")


def verify_ly_axioms_by_orbits(algebra):
    """LY1-LY6 of one algebra, one orbit tuple at a time."""
    return orbit_axiom_report(LY_NAMES, orbit_ly_identities(
        (algebra.binary,), (algebra.ternary,), 0), algebra.dim)


def dense_ly_report(F, G, n: int):
    """LY1-LY6 at order ``n`` of the series F and G on every basis tuple,
    on dense vectors."""
    return _axiom_report(LY_NAMES, dense_ly_identities(F, G, n), len(F[0]))


def verify_ly_axioms_dense(algebra):
    """LY1-LY6 of one algebra: order 0 of :func:`dense_ly_report`."""
    return dense_ly_report((algebra.binary,), (algebra.ternary,), 0)


def derivation_check_dense(algebra, dm):
    """Leibniz rule of dm over both brackets, on basis tuples."""
    if dm.rows != algebra.dim or dm.cols != algebra.dim:
        raise DimMismatch("derivation matrix side != algebra dim")
    n = algebra.dim
    d_img = [dm.apply(algebra.basis(i)) for i in range(n)]
    unit = algebra.basis

    def binary(i, j):
        lhs = dm.apply(algebra.binary[i][j])
        rhs = vec_add(bracket2(algebra, d_img[i], unit(j)),
                      bracket2(algebra, unit(i), d_img[j]))
        return vec_sub(lhs, rhs)

    def ternary(i, j, k):
        lhs = dm.apply(algebra.ternary[i][j][k])
        rhs = bracket3(algebra, d_img[i], unit(j), unit(k))
        rhs = vec_add(rhs, bracket3(algebra, unit(i), d_img[j], unit(k)))
        rhs = vec_add(rhs, bracket3(algebra, unit(i), unit(j), d_img[k]))
        return vec_sub(lhs, rhs)

    return _axiom_report(("derivation-binary", "derivation-ternary"),
                         ((2, binary), (3, ternary)), n)


def d_table_dense(algebra, rep):
    """Every D(e_i, e_j) from whole-matrix sums and products:

        D(x,y) = theta(y,x) - theta(x,y) - rho([x,y]) + rho(x)rho(y) - rho(y)rho(x)
    """
    n = algebra.dim
    return tuple(
        tuple(rep.theta[j][i] - rep.theta[i][j] - rho_at(rep, algebra.binary[i][j])
              + rep.rho[i] @ rep.rho[j] - rep.rho[j] @ rep.rho[i] for j in range(n))
        for i in range(n))


def induced_rep_dense(algebra, op, rep):
    """rho_T and theta_T of the induced representation from ``rho_at``,
    ``theta_at`` and whole-matrix products, not re-validated."""
    n = algebra.dim
    w = op.weight
    tv = rep.module_op
    t_img = [op.matrix.apply(algebra.basis(i)) for i in range(n)]
    rho_t = []
    for x in range(n):
        rho_tx = rho_at(rep, t_img[x])
        rho_t.append(rho_tx - tv @ (rho_tx.scale(w) + rep.rho[x]))
    theta_t = []
    for x in range(n):
        row = []
        for y in range(n):
            th_txty = theta_at(rep, t_img[x], t_img[y])
            th_tx_y = theta_at(rep, t_img[x], algebra.basis(y))
            th_x_ty = theta_at(rep, algebra.basis(x), t_img[y])
            row.append(th_txty - tv @ (th_txty.scale(2 * w) + th_tx_y + th_x_ty))
        theta_t.append(tuple(row))
    return Representation(n, rep.module_dim, tuple(rho_t), tuple(theta_t), tv)


def descendant_algebra_dense(algebra, op):
    """The descendant brackets from dense images of T, not re-validated:

        [x,y]_T   = [Tx,y] + [x,Ty] + w [Tx,Ty]
        {x,y,z}_T = {x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz}
    """
    n = algebra.dim
    w = op.weight
    b, t = algebra.binary, algebra.ternary
    e = [algebra.basis(i) for i in range(n)]
    te = [op.matrix.apply(e[i]) for i in range(n)]

    def binary_at(i, j):
        acc = vec_add(apply_binary(b, te[i], e[j]), apply_binary(b, e[i], te[j]))
        return vec_add(acc, vec_scale(w, apply_binary(b, te[i], te[j])))

    def ternary_at(i, j, k):
        acc = vec_add(apply_ternary(t, e[i], te[j], te[k]),
                      apply_ternary(t, te[i], e[j], te[k]))
        acc = vec_add(acc, apply_ternary(t, te[i], te[j], e[k]))
        return vec_add(acc, vec_scale(2 * w, apply_ternary(t, te[i], te[j], te[k])))

    binary = tuple(tuple(binary_at(i, j) for j in range(n)) for i in range(n))
    ternary = tuple(tuple(tuple(ternary_at(i, j, k) for k in range(n)) for j in range(n))
                    for i in range(n))
    return LyAlgebra(n, binary, ternary, algebra.labels)


def _d_at(dd, x, y, zero):
    """D of a general pair, by bilinearity, from the table ``dd``."""
    return lincomb(x, [lincomb(y, row, zero) for row in dd], zero)


def verify_rep_dense(algebra, rep):
    """Check the five representation identities on basis tuples.

    Module arguments need no loop of their own: each identity is an equality
    of operators on V, so comparing matrices covers every module element.
    When all five pass, the two derived identities (the cyclic D identity
    and the D-D compatibility) are checked as well; those must follow, so a
    failure raises InternalInconsistency instead of being reported as data.
    """
    n = algebra.dim
    if rep.algebra_dim != n:
        raise DimMismatch("representation is over a different algebra dimension")
    rho, theta = rep.rho, rep.theta
    t = algebra.ternary
    dd = d_table_dense(algebra, rep)
    zero = Matrix.zero(rep.module_dim, rep.module_dim)
    # theta_col[a][k] = theta(e_k, e_a) and d_col[y][k] = D(e_k, e_y), so
    # that linearity in the first slot is a lincomb over a column
    theta_col = [[theta[k][a] for k in range(n)] for a in range(n)]
    d_col = [[dd[k][y] for k in range(n)] for y in range(n)]

    identities = (
        ("theta-of-bracket", 3,
         lambda x, y, a: lincomb(algebra.binary[x][y], theta_col[a], zero)
         - (theta[x][a] @ rho[y] - theta[y][a] @ rho[x])),
        ("d-rho-compat", 3,
         lambda a, b, x: dd[a][b] @ rho[x]
         - (rho[x] @ dd[a][b] + rho_at(rep, t[a][b][x]))),
        ("rho-of-bracket", 3,
         lambda x, a, b: lincomb(algebra.binary[a][b], theta[x], zero)
         - (rho[a] @ theta[x][b] - rho[b] @ theta[x][a])),
        ("d-theta-compat", 4,
         lambda a, b, x, y: dd[a][b] @ theta[x][y]
         - (theta[x][y] @ dd[a][b] + lincomb(t[a][b][x], theta_col[y], zero)
            + lincomb(t[a][b][y], theta[x], zero))),
        ("theta-of-ternary", 4,
         lambda a, x, y, z: lincomb(t[x][y][z], theta[a], zero)
         - (theta[y][z] @ theta[a][x] - theta[x][z] @ theta[a][y]
            + dd[x][y] @ theta[a][z])),
    )
    checks = [first_failure(name, product(range(n), repeat=arity), fn, Matrix.is_zero)
              for name, arity, fn in identities]

    if all(c.passed for c in checks):
        for x, y, z in product(range(n), repeat=3):
            r = (lincomb(algebra.binary[x][y], d_col[z], zero)
                 + lincomb(algebra.binary[y][z], d_col[x], zero)
                 + lincomb(algebra.binary[z][x], d_col[y], zero))
            if not r.is_zero():
                raise InternalInconsistency(
                    f"derived cyclic D identity fails at ({x},{y},{z}) although "
                    "the representation identities hold")
        for a, b, x, y in product(range(n), repeat=4):
            r = (dd[a][b] @ dd[x][y]
                 - (dd[x][y] @ dd[a][b] + lincomb(t[a][b][x], d_col[y], zero)
                    + _d_at(dd, algebra.basis(x), t[a][b][y], zero)))
            if not r.is_zero():
                raise InternalInconsistency(
                    f"derived D-D compatibility fails at ({a},{b},{x},{y}) although "
                    "the representation identities hold")
        checks.append(Check("d-cyclic (derived)", True))
        checks.append(Check("d-d-compat (derived)", True))

    return AxiomReport(tuple(checks))


def verify_reynolds_rep_dense(algebra, op, rep):
    """Check the module-operator identities against the algebra operator.

    Both sides are matrices acting on V, checked on basis pairs/triples of
    the algebra; the weight is taken from ``op``.  The derived identity for
    the pair map D must follow whenever the two primary ones hold; if it
    does not, InternalInconsistency is raised.
    """
    if rep.module_op is None:
        raise MissingModuleOp("representation has no module operator")
    if op.dim != algebra.dim or rep.algebra_dim != algebra.dim:
        raise DimMismatch("dimensions do not line up")
    n = algebra.dim
    w = op.weight
    tv = rep.module_op
    t_img = [op.matrix.apply(algebra.basis(i)) for i in range(n)]

    def rho_residual(x):
        rho_tx = rho_at(rep, t_img[x])
        return rho_tx @ tv - tv @ (rho_tx + rep.rho[x] @ tv + (rho_tx @ tv).scale(w))

    def theta_residual(x, y):
        th_txty = theta_at(rep, t_img[x], t_img[y])
        th_tx_y = theta_at(rep, t_img[x], algebra.basis(y))
        th_x_ty = theta_at(rep, algebra.basis(x), t_img[y])
        return th_txty @ tv - tv @ (th_txty + th_tx_y @ tv + th_x_ty @ tv
                                    + (th_txty @ tv).scale(2 * w))

    checks = [
        first_failure("rho-module-op", product(range(n)), rho_residual, Matrix.is_zero),
        first_failure("theta-module-op", product(range(n), repeat=2), theta_residual,
                      Matrix.is_zero)]

    if all(c.passed for c in checks):
        dd = d_table_dense(algebra, rep)
        zero = Matrix.zero(rep.module_dim, rep.module_dim)
        for x, y in product(range(n), repeat=2):
            d_txty = _d_at(dd, t_img[x], t_img[y], zero)
            d_tx_y = _d_at(dd, t_img[x], algebra.basis(y), zero)
            d_x_ty = _d_at(dd, algebra.basis(x), t_img[y], zero)
            r = d_txty @ tv - tv @ (d_txty + d_tx_y @ tv + d_x_ty @ tv
                                    + (d_txty @ tv).scale(2 * w))
            if not r.is_zero():
                raise InternalInconsistency(
                    f"derived D module-op identity fails at ({x},{y}) although the "
                    "rho and theta module-op identities hold")
        checks.append(Check("d-module-op (derived)", True))

    return AxiomReport(tuple(checks))


def apply_equivalence_dense(deformation, iso):
    """Transport a deformation along a formal isomorphism phi:

        F' = phi o F o (phi^{-1} (x) phi^{-1}),  likewise for G,
        T' = phi o T o phi^{-1},

    expanded order by order with the truncated inverse of phi.  The identity
    isomorphism is the identity transport, and transports by phi and by
    phi.inverse() cancel up to the truncation order.
    """
    if iso.order != deformation.order:
        raise OrderMismatch("isomorphism and deformation orders differ")
    if iso.dim != deformation.dim:
        raise DimMismatch("isomorphism acts on a different space")
    n_dim = deformation.dim
    N = deformation.order
    phi_c = iso.phi
    psi_c = iso.inverse().phi
    F, G, Tt = deformation.F, deformation.G, deformation.Tt
    psi_img = [[psi_c[c].apply(unit_vector(n_dim, x)) for x in range(n_dim)]
               for c in range(N + 1)]

    new_f = []
    new_g = []
    new_t = []
    for s in range(N + 1):
        f_s = [[zero_vector(n_dim) for _ in range(n_dim)] for _ in range(n_dim)]
        for (a, b, c, d) in _compositions(s, 4):
            for x, y in product(range(n_dim), repeat=2):
                val = apply_binary(F[b], psi_img[c][x], psi_img[d][y])
                f_s[x][y] = vec_add(f_s[x][y], phi_c[a].apply(val))
        new_f.append(tuple(tuple(row) for row in f_s))

        g_s = [[[zero_vector(n_dim) for _ in range(n_dim)] for _ in range(n_dim)]
               for _ in range(n_dim)]
        for (a, b, c, d, e) in _compositions(s, 5):
            for x, y, z in product(range(n_dim), repeat=3):
                val = apply_ternary(G[b], psi_img[c][x], psi_img[d][y], psi_img[e][z])
                g_s[x][y][z] = vec_add(g_s[x][y][z], phi_c[a].apply(val))
        new_g.append(tuple(tuple(tuple(row) for row in plane) for plane in g_s))

        t_s = Matrix.zero(n_dim, n_dim)
        for (a, b, c) in _compositions(s, 3):
            t_s = t_s + phi_c[a] @ Tt[b] @ psi_c[c]
        new_t.append(t_s)

    return TruncatedDeformation(N, tuple(new_f), tuple(new_g), tuple(new_t))


def inverse_by_matrices(iso) -> tuple:
    """The coefficients psi_0..psi_N of the truncated inverse of ``iso``:
    psi_0 = Id and psi_s = -sum_{i=1..s} phi_i psi_{s-i}, one Matrix
    product per term."""
    psi = [Matrix.identity(iso.dim)]
    for s in range(1, iso.order + 1):
        acc = Matrix.zero(iso.dim, iso.dim)
        for i in range(1, s + 1):
            acc = acc + iso.phi[i] @ psi[s - i]
        psi.append(acc.scale(-1))
    return tuple(psi)


def morphism_failure_dense(phi, source, target):
    """First basis tuple at which the linear map ``phi`` fails to carry a
    bracket of ``source`` to the same bracket of ``target``: the pairs (i, j)
    of the binary bracket come before the triples (i, j, k) of the ternary
    one, i < j in both.  None when ``phi`` is a morphism of both brackets."""
    n = source.dim
    cols = phi.transpose()
    img = [cols.row(i) for i in range(n)]
    for i, j in orbit_tuples(n, (2,)):
        if phi.apply(source.binary[i][j]) != apply_binary(target.binary, img[i], img[j]):
            return (i, j)
    for i, j, k in orbit_tuples(n, (2, 1)):
        if phi.apply(source.ternary[i][j][k]) != \
                apply_ternary(target.ternary, img[i], img[j], img[k]):
            return (i, j, k)
    return None


def leibniz_failure_dense(star):
    """First basis triple (i, j, k), in product order, at which the left
    Leibniz identity x*(y*z) = (x*y)*z + y*(x*z) of the star product
    ``star`` (nested tuples or a Tensor) fails, or None: every triple, each
    side by bilinear extension on dense vectors."""
    dim = len(star)
    star = _freeze(star, dim, 2)
    for i, j, k in product(range(dim), repeat=3):
        lhs = apply_binary(star, unit_vector(dim, i), star[j][k])
        rhs = vec_add(apply_binary(star, star[i][j], unit_vector(dim, k)),
                      apply_binary(star, unit_vector(dim, j), star[i][k]))
        if lhs != rhs:
            return (i, j, k)
    return None


def antisymmetry_failure_scan(tensor, dim, depth):
    """First basis tuple (i, j, ...) in product order over all of them at
    which some entry of tensor[i][j]... differs from minus the entry of
    tensor[j][i]..., or None."""
    for idx in product(range(dim), repeat=depth):
        i, j, *rest = idx
        a, b = tensor[i][j], tensor[j][i]
        for k in rest:
            a, b = a[k], b[k]
        if any(x != -y for x, y in zip(a, b)):
            return idx
    return None


# ---------------------------------------------------------------------------
# extensions read through one solve per vector, and assembled case by case

def module_coords(ext, vec):
    """Coordinates in V of a total vector lying in the module image."""
    sol = solve(ext.inject, vec)
    if sol is None or ext.inject.apply(sol) != tuple(vec):
        raise InvalidInput("vector does not lie in the module image")
    return sol


def _bracket_tables(algebra, vectors, out):
    idx = range(len(vectors))
    binary = tuple(
        tuple(out(bracket2(algebra, vectors[i], vectors[j])) for j in idx)
        for i in idx)
    ternary = tuple(
        tuple(
            tuple(out(bracket3(algebra, vectors[i], vectors[j], vectors[k])) for k in idx)
            for j in idx)
        for i in idx)
    return binary, ternary


def base_data_by_solves(ext, section=None):
    """(L, T, T_V): projected brackets and operator on section lifts, and
    T_V solving inject o T_V = T_hat o inject."""
    if section is None:
        section = ext.canonical_section()
    ext.check_section(section)
    n, m = ext.base_dim, ext.module_dim
    s_img = [section.map.column(i) for i in range(n)]
    base = LyAlgebra(n, *_bracket_tables(ext.total, s_img, ext.project.apply))
    t_mat = Matrix.from_columns(
        [ext.project.apply(ext.total_op.matrix.apply(s_img[i])) for i in range(n)], n)
    tv = Matrix.from_columns(
        [module_coords(ext, ext.total_op.matrix.apply(ext.inject.column(a)))
         for a in range(m)], m)
    return base, ReynoldsOperator(t_mat, ext.total_op.weight), tv


def extract_rep_by_solves(ext, section=None):
    """rho(x) u = [s(x), i(u)] and theta(x,y) u = {i(u), s(x), s(y)}, each
    column solved for in V."""
    section = section or ext.canonical_section()
    _base, _op, tv = base_data_by_solves(ext, section)
    n, m = ext.base_dim, ext.module_dim
    s_img = [section.map.column(i) for i in range(n)]
    v_img = [ext.inject.column(a) for a in range(m)]
    rho = tuple(
        Matrix.from_columns(
            [module_coords(ext, bracket2(ext.total, s_img[i], v_img[a])) for a in range(m)], m)
        for i in range(n))
    theta = tuple(
        tuple(
            Matrix.from_columns(
                [module_coords(ext, bracket3(ext.total, v_img[a], s_img[i], s_img[j]))
                 for a in range(m)], m)
            for j in range(n))
        for i in range(n))
    return Representation(n, m, rho, theta, tv)


def extract_cocycle_by_solves(ext, section=None):
    """nu, psi and chi as v - s(project(v)) of the total brackets and
    operator on section lifts, each solved for in V."""
    section = section or ext.canonical_section()
    base_data_by_solves(ext, section)
    s = section.map
    s_img = [s.column(i) for i in range(ext.base_dim)]

    def defect(vec):
        return module_coords(ext, vec_sub(vec, s.apply(ext.project.apply(vec))))

    nu, psi = _bracket_tables(ext.total, s_img, defect)
    chi = Matrix.from_columns([defect(ext.total_op.matrix.apply(v)) for v in s_img],
                              ext.module_dim)
    return ExtensionCocycle(nu, psi, chi)


def assemble_extension_by_cases(algebra, op, rep, cocycle):
    """The total structure on L (+) V filled in cell by cell, each cell by
    which of its slots lie in L and which in V."""
    n, m = algebra.dim, rep.module_dim
    total = n + m
    dd = d_table_dense(algebra, rep)
    zl = zero_vector(n)
    zv = zero_vector(m)

    def pad_l(vec):
        return tuple(vec) + zv

    def pad_v(vec):
        return zl + tuple(vec)

    binary = [[None] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            if i < n and j < n:
                binary[i][j] = vec_add(pad_l(algebra.binary[i][j]), pad_v(cocycle.nu[i][j]))
            elif i < n <= j:
                binary[i][j] = pad_v(rep.rho[i].column(j - n))
            elif j < n <= i:
                binary[i][j] = pad_v(tuple(-c for c in rep.rho[j].column(i - n)))
            else:
                binary[i][j] = zl + zv

    ternary = [[[None] * total for _ in range(total)] for _ in range(total)]
    for i in range(total):
        for j in range(total):
            for k in range(total):
                li, lj, lk = i < n, j < n, k < n
                if li and lj and lk:
                    ternary[i][j][k] = vec_add(pad_l(algebra.ternary[i][j][k]),
                                               pad_v(cocycle.psi[i][j][k]))
                elif li and lj and not lk:
                    ternary[i][j][k] = pad_v(dd[i][j].column(k - n))
                elif li and not lj and lk:
                    ternary[i][j][k] = pad_v(
                        tuple(-c for c in rep.theta[i][k].column(j - n)))
                elif not li and lj and lk:
                    ternary[i][j][k] = pad_v(rep.theta[j][k].column(i - n))
                else:
                    ternary[i][j][k] = zl + zv

    rows = []
    for i in range(n):
        rows.append(list(op.matrix.row(i)) + [Fraction(0)] * m)
    for a in range(m):
        rows.append(list(cocycle.chi.row(a)) + list(rep.module_op.row(a)))
    total_op = ReynoldsOperator(Matrix.from_rows(rows, total), op.weight)

    labels = None
    if algebra.labels:
        labels = tuple(algebra.labels) + tuple(f"v{a + 1}" for a in range(m))
    total_algebra = LyAlgebra(total, tuple(map(tuple, binary)),
                              tuple(tuple(map(tuple, row)) for row in ternary), labels)
    return total_algebra, total_op


def antisymmetry_failure_walk(tensor, dim, depth):
    """First basis tuple (i, j, ...) with i <= j, in product order, at which
    some entry of tensor[i][j]... is not minus the entry of tensor[j][i]...,
    or None: every pair visited, entries compared by numerator and
    denominator."""
    for i in range(dim):
        for j in range(i, dim):
            for rest in product(range(dim), repeat=depth - 2):
                a, b = tensor[i][j], tensor[j][i]
                for k in rest:
                    a, b = a[k], b[k]
                for x, y in zip(a, b):
                    if x.numerator != -y.numerator or x.denominator != y.denominator:
                        return (i, j) + rest
    return None


_INTEGER_RE = re.compile(r"-?\d+")


def integer_by_regex(tok: str):
    """``tok`` as an int when it fully matches ``-?\\d+``, else None."""
    return int(tok) if _INTEGER_RE.fullmatch(tok) else None


def index_by_regex(tok: str, dim: int, path: str, line: int) -> int:
    value = integer_by_regex(tok)
    if value is None or value < 1:
        raise ParseError(f"expected a 1-based index, got {tok!r}", path, line)
    if value > dim:
        raise ParseError(f"index {value} out of range 1..{dim}", path, line)
    return value - 1


def sparse_tensor_by_lines(sec, key, dims, antisym_pair=None, split=False) -> list:
    """The cells of the sparse lines ``i j .. val`` under ``key`` of a raw
    section, in the form of ``fileformat._sparse_tensor``, read as the
    earlier loader did: every line's index tuple and value parsed on their
    own, each image set with ``setdefault`` and compared with ``!=``, the
    line of every cell kept for the conflict message, and with ``split``
    the cells of each leading index filtered out of all of them."""
    cells, lines = {}, {}
    for tokens, line in sec.lists.get(key, []):
        if len(tokens) != len(dims) + 1:
            raise ParseError(
                f"{key!r} entries take {len(dims)} indices and one value",
                sec.path, line)
        idx = tuple(index_by_regex(t, d, sec.path, line) for t, d in zip(tokens, dims))
        val = _rational(tokens[-1], sec.path, line)
        images = [(idx, val)]
        if antisym_pair is not None:
            a, b = antisym_pair
            swapped = list(idx)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            images.append((tuple(swapped), -val))
        for where, value in images:
            if cells.setdefault(where, value) != value:
                raise ParseError(
                    f"{key!r} entry at {tuple(i + 1 for i in where)} conflicts with "
                    f"line {lines[where]}", sec.path, line)
            lines.setdefault(where, line)
    if not split:
        return [{position(idx, dims): v for idx, v in cells.items() if v}]
    return [{position(idx[1:], dims[1:]): v for idx, v in cells.items() if idx[0] == k and v}
            for k in range(dims[0])]


def slot_product_unskipped(series, maps, stride: int, dim: int) -> list:
    """``algebra.slot_product`` over every map order up to each order of
    the series, zero maps included."""
    out = []
    for s in range(len(series)):
        acc = defaultdict(int)
        for c, moves in enumerate(maps[:s + 1]):
            for key, v in series[s - c].items():
                y = key // stride % dim
                base = key - y * stride
                for x, p in moves[y]:
                    acc[base + x * stride] += v * p
        out.append(acc)
    return out


def cells_by_walk(tensor, depth: int, den: int) -> list:
    """The ``(i, j, .., coordinate, value)`` tuple of every nonzero entry of
    a tensor with ``depth`` levels of basis indices, value den times the
    entry, by walking its nested view of Fractions, in product order."""
    nodes = [((), tensor)]
    for _ in range(depth):
        nodes = [(idx + (i,), child) for idx, node in nodes for i, child in enumerate(node)]
    return [idx + (k, v * den) for idx, leaf in nodes for k, v in enumerate(leaf) if v]


def build_parser_by_hand() -> argparse.ArgumentParser:
    """The full CLI parser, each command's arguments written out in place."""
    parser = argparse.ArgumentParser(
        prog="lyreynolds",
        description="Exact verification and cohomology for Lie-Yamaguti "
                    "algebras with Reynolds operators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verifier battery of one named object")
    p.add_argument("files", nargs="+")
    p.add_argument("--name", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_verify)

    p = sub.add_parser("cohomology", help="cohomology dimension table of a complex")
    p.add_argument("files", nargs="+")
    p.add_argument("--algebra", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--complex", choices=("ly", "ro", "rly"), default="rly")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_cohomology)

    p = sub.add_parser("classify-extensions",
                       help="degree-2 classes with verified representatives")
    p.add_argument("files", nargs="+")
    p.add_argument("--algebra", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_classify_extensions)

    p = sub.add_parser("deform-check", help="verify a deformation order by order")
    p.add_argument("files", nargs="+")
    p.add_argument("--name")
    p.add_argument("--order", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_deform_check)

    return parser


def main_by_full_parser(argv=None, build=build_parser_by_hand) -> int:
    """``cli.main`` parsing every call with the full parser of ``build``."""
    parser = build()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_INPUT_ERROR
