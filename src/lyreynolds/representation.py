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
from itertools import product

from .algebra import LyAlgebra
from .errors import (
    DimMismatch,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidInput,
    MissingModuleOp,
    MixedAlgebras,
)
from .linalg import Matrix, block_diag, lincomb
from .reporting import AxiomReport, Check, first_failure
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


def _d_at(dd, x, y, zero: Matrix) -> Matrix:
    """D of a general pair, by bilinearity, from the table ``dd``."""
    return lincomb(x, [lincomb(y, row, zero) for row in dd], zero)


def verify_rep(algebra: LyAlgebra, rep: Representation) -> AxiomReport:
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
    dd = d_table(algebra, rep)
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
         - (rho[x] @ dd[a][b] + rep.rho_at(t[a][b][x]))),
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
    n = algebra.dim
    w = op.weight
    tv = rep.module_op
    t_img = [op.matrix.apply(algebra.basis(i)) for i in range(n)]

    def rho_residual(x):
        rho_tx = rep.rho_at(t_img[x])
        return rho_tx @ tv - tv @ (rho_tx + rep.rho[x] @ tv + (rho_tx @ tv).scale(w))

    def theta_residual(x, y):
        th_txty = rep.theta_at(t_img[x], t_img[y])
        th_tx_y = rep.theta_at(t_img[x], algebra.basis(y))
        th_x_ty = rep.theta_at(algebra.basis(x), t_img[y])
        return th_txty @ tv - tv @ (th_txty + th_tx_y @ tv + th_x_ty @ tv
                                    + (th_txty @ tv).scale(2 * w))

    checks = [
        first_failure("rho-module-op", product(range(n)), rho_residual, Matrix.is_zero),
        first_failure("theta-module-op", product(range(n), repeat=2), theta_residual,
                      Matrix.is_zero)]

    if all(c.passed for c in checks):
        dd = d_table(algebra, rep)
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
