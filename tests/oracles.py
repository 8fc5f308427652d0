"""Slow exact oracles: the earlier dense builders, kept only to test the
sparse ones against.

* ``delta_by_values`` evaluates the Yamaguti coboundary on one cochain by
  contracting nested tensors, and ``columns_by_units`` builds a matrix by
  applying it to every unit cochain in turn.
* ``phi_matrix_by_kron`` builds the comparison map from Kronecker chains
  (``kron``).
* ``differential_matrix_by_units`` stacks the cone from dense row lists.
* ``dense_rref`` is Gauss-Jordan elimination on full rows, and
  ``dense_matmul`` the product over every entry.

The sparse builders must give exactly the same matrices, and the sparse
elimination exactly the same reduced rows and pivots.
"""

from fractions import Fraction
from functools import cache
from itertools import product

from lyreynolds.cohomology import (
    _f_shape,
    _g_shape,
    _tensor_build,
    Cochain,
    cochain_dim,
    flatten,
    unflatten,
    wedge_dim,
    wedge_pairs,
    wedge_vector,
)
from lyreynolds.linalg import (
    Matrix,
    block_diag,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)
from lyreynolds.representation import d_table, induced_rep
from lyreynolds.reynolds import descendant_algebra


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


def delta_by_values(algebra, rep, c):
    """The Yamaguti coboundary of one cochain, evaluated slot by slot."""
    n, m = algebra.dim, rep.module_dim
    pairs = wedge_pairs(n)
    w = len(pairs)
    dd = d_table(algebra, rep)
    rho, theta = rep.rho, rep.theta
    b, t = algebra.binary, algebra.ternary

    def h_of(vec):
        acc = zero_vector(m)
        for k, coef in enumerate(vec):
            if coef:
                acc = vec_add(acc, vec_scale(coef, c.g[k]))
        return acc

    if c.degree == 1:
        f_out = []
        for (i, j) in pairs:
            val = vec_add(rho[i].apply(c.g[j]), vec_scale(-1, rho[j].apply(c.g[i])))
            f_out.append(vec_add(val, vec_scale(-1, h_of(b[i][j]))))
        g_out = []
        for (i, j) in pairs:
            row = []
            for z in range(n):
                val = dd[i][j].apply(c.g[z])
                val = vec_add(val, theta[j][z].apply(c.g[i]))
                val = vec_add(val, vec_scale(-1, theta[i][z].apply(c.g[j])))
                row.append(vec_add(val, vec_scale(-1, h_of(t[i][j][z]))))
            g_out.append(tuple(row))
        return Cochain(2, n, m, tuple(f_out), tuple(g_out))

    q = c.degree - 1
    sign_q = Fraction(-1) ** q
    unit_w = [unit_vector(w, k) for k in range(w)]
    unit_l = [unit_vector(n, z) for z in range(n)]

    def eval_f(slots):
        return _eval_slots(c.f, slots, m)

    def eval_g(slots, zvec):
        return _eval_slots(c.g, list(slots) + [zvec], m)

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

    f_out = _tensor_build(_f_shape(c.degree + 1, n, m), iter(x for v in f_vals for x in v))
    g_out = _tensor_build(_g_shape(c.degree + 1, n, m), iter(x for v in g_vals for x in v))
    return Cochain(c.degree + 1, n, m, f_out, g_out)


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
