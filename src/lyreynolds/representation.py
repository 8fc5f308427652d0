"""Representations (V; rho, theta) of Lie-Yamaguti algebras and their
Reynolds-compatible module operators.

rho maps algebra elements to operators on V, theta maps pairs to operators,
and the derived pair map is never stored: it is always recomputed as

    D(x,y) = theta(y,x) - theta(x,y) - rho([x,y]) + rho(x)rho(y) - rho(y)rho(x)

so there is no consistency obligation between a stored D and the rest.
The module operator carries no weight of its own; verifiers take the weight
from the algebra operator they are handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import LyAlgebra, expand, orbit_tuples, sparse_table
from .errors import (
    DimMismatch,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidInput,
    MissingModuleOp,
    MixedAlgebras,
)
from .linalg import (
    Matrix,
    add_product,
    add_rows,
    block_diag,
    lincomb,
)
from .reporting import AxiomReport, first_failure
from .reynolds import ReynoldsOperator, descendant_algebra


@dataclass(frozen=True)
class Representation:
    """rho[i] is the matrix of rho(e_i); theta[i][j] of theta(e_i, e_j)."""

    algebra_dim: int
    module_dim: int
    rho: tuple[Matrix, ...]
    theta: tuple[tuple[Matrix, ...], ...]
    module_op: Matrix | None = None

    def __post_init__(self):
        n, m = self.algebra_dim, self.module_dim
        if len(self.rho) != n or len(self.theta) != n:
            raise DimMismatch("need one rho matrix and one theta row per basis vector")
        for mat in self.rho:
            if (mat.rows, mat.cols) != (m, m):
                raise DimMismatch("rho matrices must be module_dim x module_dim")
        for row in self.theta:
            if len(row) != n:
                raise DimMismatch("theta must be an n x n table of matrices")
            for mat in row:
                if (mat.rows, mat.cols) != (m, m):
                    raise DimMismatch("theta matrices must be module_dim x module_dim")
        if self.module_op is not None and \
                (self.module_op.rows, self.module_op.cols) != (m, m):
            raise DimMismatch("module operator must be module_dim x module_dim")

    def rho_at(self, x) -> Matrix:
        """rho of a general element, by linearity."""
        return lincomb(x, self.rho, Matrix.zero(self.module_dim, self.module_dim))

    def theta_at(self, x, y) -> Matrix:
        """theta of a general pair, by bilinearity."""
        zero = Matrix.zero(self.module_dim, self.module_dim)
        return lincomb(x, [lincomb(y, row, zero) for row in self.theta], zero)


def zero_rep(algebra_dim: int, module_dim: int, module_op: Matrix | None = None) -> Representation:
    z = Matrix.zero(module_dim, module_dim)
    return Representation(
        algebra_dim, module_dim,
        (z,) * algebra_dim,
        tuple((z,) * algebra_dim for _ in range(algebra_dim)),
        module_op)


def d_map(algebra: LyAlgebra, rep: Representation, i: int, j: int) -> Matrix:
    """Matrix of the derived pair map D(e_i, e_j)."""
    n = algebra.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"basis indices ({i},{j}) out of range for dim {n}")
    if rep.algebra_dim != n:
        raise DimMismatch("representation is over a different algebra dimension")
    return (rep.theta[j][i] - rep.theta[i][j] - rep.rho_at(algebra.binary[i][j])
            + rep.rho[i] @ rep.rho[j] - rep.rho[j] @ rep.rho[i])


@cache
def d_table(algebra: LyAlgebra, rep: Representation):
    """All D(e_i, e_j) matrices, computed once per (algebra, rep)."""
    n = algebra.dim
    return tuple(tuple(d_map(algebra, rep, i, j) for j in range(n)) for i in range(n))


def _op_at(acc, c, table, vecs) -> None:
    """acc += c * table(vecs...) for a multilinear map into operators on V:
    ``table`` nests one basis index per argument above sparse rows, and each
    argument is a sparse ``(index, value)`` sequence (see algebra.expand)."""
    for rows, k in expand(table, c, vecs):
        add_rows(acc, k, rows)


def _is_zero(acc) -> bool:
    return not any(any(row.values()) for row in acc)


def _pairs(acc):
    """One {column: entry} dict per row read as ``(column, entry)`` pairs."""
    return [row.items() for row in acc]


def _sparse_maps(algebra: LyAlgebra, rep: Representation):
    """rho, theta and D read once as sparse rows, in their table nesting."""
    rho = tuple(r.sparse for r in rep.rho)
    theta = tuple(tuple(x.sparse for x in row) for row in rep.theta)
    dd = tuple(tuple(x.sparse for x in row) for row in d_table(algebra, rep))
    return rho, theta, dd


def _rep_identities(algebra: LyAlgebra, rep: Representation):
    """The five representation identities, then the two derived ones (the
    cyclic D identity and the D-D compatibility), as ``(name, shape,
    residual)`` triples: a residual maps a basis tuple to the operator on V
    of LHS - RHS, as sparse rows, and is antisymmetric within the groups of
    its shape (see algebra.orbit_tuples).  Operators are read once as sparse
    rows, and every sum and product runs over their nonzero entries."""
    n, m = algebra.dim, rep.module_dim
    f = sparse_table(algebra.binary, 2)
    g = sparse_table(algebra.ternary, 3)
    rho, theta, dd = _sparse_maps(algebra, rep)
    # theta_col[a][k] = theta(e_k, e_a) and d_col[y][k] = D(e_k, e_y), so
    # that linearity in the first slot is a sum over a column
    theta_col = [[theta[k][a] for k in range(n)] for a in range(n)]
    d_col = [[dd[k][y] for k in range(n)] for y in range(n)]

    def theta_of_bracket(x, y, a):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, theta_col[a], (f[x][y],))
        add_product(acc, -1, theta[x][a], rho[y])
        add_product(acc, 1, theta[y][a], rho[x])
        return acc

    def d_rho_compat(a, b, x):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], rho[x])
        add_product(acc, -1, rho[x], dd[a][b])
        _op_at(acc, -1, rho, (g[a][b][x],))
        return acc

    def rho_of_bracket(x, a, b):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, theta[x], (f[a][b],))
        add_product(acc, -1, rho[a], theta[x][b])
        add_product(acc, 1, rho[b], theta[x][a])
        return acc

    def d_theta_compat(a, b, x, y):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], theta[x][y])
        add_product(acc, -1, theta[x][y], dd[a][b])
        _op_at(acc, -1, theta_col[y], (g[a][b][x],))
        _op_at(acc, -1, theta[x], (g[a][b][y],))
        return acc

    def theta_of_ternary(a, x, y, z):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, theta[a], (g[x][y][z],))
        add_product(acc, -1, theta[y][z], theta[a][x])
        add_product(acc, 1, theta[x][z], theta[a][y])
        add_product(acc, -1, dd[x][y], theta[a][z])
        return acc

    def d_cyclic(x, y, z):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, d_col[z], (f[x][y],))
        _op_at(acc, 1, d_col[x], (f[y][z],))
        _op_at(acc, 1, d_col[y], (f[z][x],))
        return acc

    def d_d_compat(a, b, x, y):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], dd[x][y])
        add_product(acc, -1, dd[x][y], dd[a][b])
        _op_at(acc, -1, d_col[y], (g[a][b][x],))
        _op_at(acc, -1, dd[x], (g[a][b][y],))
        return acc

    return (("theta-of-bracket", (2, 1), theta_of_bracket),
            ("d-rho-compat", (2, 1), d_rho_compat),
            ("rho-of-bracket", (1, 2), rho_of_bracket),
            ("d-theta-compat", (2, 1, 1), d_theta_compat),
            ("theta-of-ternary", (1, 2, 1), theta_of_ternary),
            ("d-cyclic (derived)", (3,), d_cyclic),
            ("d-d-compat (derived)", (2, 2), d_d_compat))


def _operator_report(dim: int, module_dim: int, identities, derived, premise: str) -> AxiomReport:
    """One check per named ``(name, shape, residual)`` identity over the
    basis tuples of algebra.orbit_tuples for its shape.  When all of them
    pass, each ``(identity, what)`` of ``derived`` is checked as well; it
    must follow from ``premise``, so a failure is a bug, raised as
    InternalInconsistency with its witness instead of being reported."""
    checks = [first_failure(name, orbit_tuples(dim, shape), fn, _is_zero,
                            lambda acc: Matrix.from_sparse_rows(acc, module_dim))
              for name, shape, fn in identities]
    if all(c.passed for c in checks):
        for (name, shape, fn), what in derived:
            check = first_failure(name, orbit_tuples(dim, shape), fn, _is_zero)
            if not check.passed:
                raise InternalInconsistency(
                    f"{what} fails at ({','.join(map(str, check.witness))}) although "
                    f"{premise} hold")
            checks.append(check)
    return AxiomReport(tuple(checks))


def verify_rep(algebra: LyAlgebra, rep: Representation) -> AxiomReport:
    """Check the five representation identities on basis tuples, one per
    orbit of the swaps they are antisymmetric under.

    Module arguments need no loop of their own: each identity is an equality
    of operators on V, so comparing matrices covers every module element.
    When all five pass, the two derived identities (the cyclic D identity
    and the D-D compatibility) are checked as well; those must follow, so a
    failure raises InternalInconsistency instead of being reported as data.
    """
    n = algebra.dim
    if rep.algebra_dim != n:
        raise DimMismatch("representation is over a different algebra dimension")
    *identities, cyclic, compat = _rep_identities(algebra, rep)
    return _operator_report(n, rep.module_dim, identities,
                   ((cyclic, "derived cyclic D identity"),
                    (compat, "derived D-D compatibility")),
                   "the representation identities")


def _module_op_identities(algebra: LyAlgebra, op: ReynoldsOperator,
                          rep: Representation):
    """The rho and theta module-operator identities, then the derived one
    for D, as ``(name, shape, residual)`` triples (see :func:`_rep_identities`).
    All three have one shape: for a k-linear map X into operators on V
    (rho, theta or D),

        X(Tx..) T_V - T_V (X(Tx..) + sum_s X(.., x_s, ..) T_V + k w X(Tx..) T_V)

    where the s-th mixed term puts T on every argument but the s-th.  Only
    the D residual is antisymmetric, because D is."""
    n, m = algebra.dim, rep.module_dim
    w = op.weight
    tv = rep.module_op.sparse
    t_col = op.matrix.transpose().sparse
    unit = [((x, 1),) for x in range(n)]
    rho, theta, dd = _sparse_maps(algebra, rep)

    def residual(table, args):
        all_t = [{} for _ in range(m)]
        _op_at(all_t, 1, table, tuple(t_col[x] for x in args))
        mixed = [{} for _ in range(m)]
        for s in range(len(args)):
            _op_at(mixed, 1, table,
                   tuple(unit[x] if r == s else t_col[x] for r, x in enumerate(args)))
        all_t, mixed = _pairs(all_t), _pairs(mixed)
        inner = [{} for _ in range(m)]
        add_rows(inner, 1, all_t)
        add_product(inner, 1, mixed, tv)
        add_product(inner, len(args) * w, all_t, tv)
        acc = [{} for _ in range(m)]
        add_product(acc, 1, all_t, tv)
        add_product(acc, -1, tv, _pairs(inner))
        return acc

    return (("rho-module-op", (1,), lambda *args: residual(rho, args)),
            ("theta-module-op", (1, 1), lambda *args: residual(theta, args)),
            ("d-module-op (derived)", (2,), lambda *args: residual(dd, args)))


def verify_reynolds_rep(algebra: LyAlgebra, op: ReynoldsOperator,
                        rep: Representation) -> AxiomReport:
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
    *identities, derived = _module_op_identities(algebra, op, rep)
    return _operator_report(algebra.dim, rep.module_dim, identities,
                   ((derived, "derived D module-op identity"),),
                   "the rho and theta module-op identities")


@cache
def _require_valid_rep(algebra: LyAlgebra, rep: Representation) -> None:
    report = verify_rep(algebra, rep)
    if not report.ok:
        raise InvalidInput("representation fails verification:\n" + report.describe())


@cache
def _require_reynolds_rep(algebra: LyAlgebra, op: ReynoldsOperator,
                          rep: Representation) -> None:
    _require_valid_rep(algebra, rep)
    report = verify_reynolds_rep(algebra, op, rep)
    if not report.ok:
        raise InvalidInput(
            "module operator fails verification:\n" + report.describe())


def adjoint_rep(algebra: LyAlgebra, op: ReynoldsOperator | None = None) -> Representation:
    """The algebra acting on itself: rho(x) z = [x,z], theta(x,y) z = {z,x,y}.

    With these choices the derived pair map satisfies D(x,y) z = {x,y,z}.
    When an operator is supplied its matrix becomes the module operator.
    """
    n = algebra.dim
    rho = tuple(
        Matrix.from_rows(
            [[algebra.binary[i][j][k] for j in range(n)] for k in range(n)], n)
        for i in range(n))
    theta = tuple(
        tuple(
            Matrix.from_rows(
                [[algebra.ternary[k][i][j][l] for k in range(n)] for l in range(n)], n)
            for j in range(n))
        for i in range(n))
    module_op = op.matrix if op is not None else None
    return Representation(n, n, rho, theta, module_op)


@cache
def induced_rep(algebra: LyAlgebra, op: ReynoldsOperator,
                rep: Representation) -> Representation:
    """The representation of the descendant algebra carried by the same V:

        rho_T(x)    = rho(Tx)     - T_V (w rho(Tx) + rho(x))
        theta_T(x,y)= theta(Tx,Ty)- T_V (2w theta(Tx,Ty) + theta(Tx,y) + theta(x,Ty))

    The output keeps the module operator and is re-validated against the
    descendant algebra; a failure there is a bug, not data.
    """
    _require_reynolds_rep(algebra, op, rep)
    n = algebra.dim
    w = op.weight
    tv = rep.module_op
    t_img = [op.matrix.apply(algebra.basis(i)) for i in range(n)]

    rho_t = []
    for x in range(n):
        rho_tx = rep.rho_at(t_img[x])
        rho_t.append(rho_tx - tv @ (rho_tx.scale(w) + rep.rho[x]))
    theta_t = []
    for x in range(n):
        row = []
        for y in range(n):
            th_txty = rep.theta_at(t_img[x], t_img[y])
            th_tx_y = rep.theta_at(t_img[x], algebra.basis(y))
            th_x_ty = rep.theta_at(algebra.basis(x), t_img[y])
            row.append(th_txty - tv @ (th_txty.scale(2 * w) + th_tx_y + th_x_ty))
        theta_t.append(tuple(row))

    out = Representation(n, rep.module_dim, tuple(rho_t), tuple(theta_t), tv)
    descendant = descendant_algebra(algebra, op)
    base = verify_rep(descendant, out)
    if not base.ok:
        raise InternalInconsistency(
            "induced maps fail the representation identities over the "
            "descendant algebra:\n" + base.describe())
    again = verify_reynolds_rep(descendant, op, out)
    if not again.ok:
        raise InternalInconsistency(
            "induced representation loses module-operator compatibility:\n"
            + again.describe())
    return out


def direct_sum_rep(reps) -> Representation:
    """Block-diagonal sum of representations over one algebra and operator."""
    reps = list(reps)
    if not reps:
        raise InvalidInput("need at least one representation")
    n = reps[0].algebra_dim
    if any(r.algebra_dim != n for r in reps):
        raise MixedAlgebras("representations over different algebra dimensions")
    has_op = [r.module_op is not None for r in reps]
    if any(has_op) and not all(has_op):
        raise MixedAlgebras("cannot mix representations with and without module operators")
    m = sum(r.module_dim for r in reps)
    rho = tuple(block_diag([r.rho[i] for r in reps]) for i in range(n))
    theta = tuple(
        tuple(block_diag([r.theta[i][j] for r in reps]) for j in range(n))
        for i in range(n))
    module_op = block_diag([r.module_op for r in reps]) if all(has_op) else None
    return Representation(n, m, rho, theta, module_op)
