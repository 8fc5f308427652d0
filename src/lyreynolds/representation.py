"""Representations (V; rho, theta) of Lie-Yamaguti algebras and their
Reynolds-compatible module operators.

rho maps algebra elements to operators on V, theta maps pairs to operators,
and the derived pair map is not part of the data: it is computed from them
as

    D(x,y) = theta(y,x) - theta(x,y) - rho([x,y]) + rho(x)rho(y) - rho(y)rho(x)

so there is no consistency obligation between a stored D and the rest
(:func:`d_table` caches the computed table per algebra and representation).
The module operator carries no weight of its own; verifiers take the weight
from the algebra operator they are handed.

The verifiers and the builders take one integer read
(``algebra.IntegerRead``) per call of what they need among the structure
constants, rho, theta, T, the module operator and the weight, over one
common denominator L, and accumulate ints: every term of an identity or of
a built entry is brought to one power of L, and only an output entry (a
built matrix, or the residual of a failing identity) is divided back, once.
The induced maps X_T of X = rho, theta and D (``_twisted``) come from the
twist kernel of the descendant brackets (``algebra.twist``), as whole
tensors in a mixed radix (``algebra.flat_table``), and the module-operator
identities are X_T(x..) T_V = T_V X(Tx..).

Those identities say that the induced maps are the transport of (rho,
theta) along (T, T_V).  So when T and T_V are invertible the induced
representation is certified by that transport (:func:`induced_rep`): one
whole-tensor check that the built maps intertwine with (rho, theta), in
place of the representation and module-operator scans over the
descendant, which a singular T or T_V still gets.

The representation layer of the input gate (:func:`check_inputs`) is here
too; it certifies an adjoint module by LY1-LY6 and the Reynolds identities
instead of scanning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product
from math import prod

from .algebra import (
    IntegerRead,
    LyAlgebra,
    expand,
    first_failing_tuple,
    flat_table,
    orbit_tuples,
    series_lincomb,
    slot_product,
    tuple_residual,
    twist,
)
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
    _view,
    add_product,
    add_rows,
    block_diag,
    from_cells,
    lincomb,
    rank,
)
from .reporting import AxiomReport, first_failure
from .reynolds import ReynoldsOperator, _require_reynolds, descendant_algebra


@dataclass(frozen=True)
class Representation:
    """rho[i] is the matrix of rho(e_i); theta[i][j] of theta(e_i, e_j).
    The hash is computed once and kept."""

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

    @cached_property
    def _hash(self) -> int:
        return hash((self.algebra_dim, self.module_dim, self.rho, self.theta, self.module_op))

    def __hash__(self):
        return self._hash

    def _check_element(self, *vecs) -> None:
        if any(len(v) != self.algebra_dim for v in vecs):
            raise DimMismatch("element coordinates do not match algebra dim")

    def rho_at(self, x) -> Matrix:
        """rho of a general element, by linearity."""
        self._check_element(x)
        return lincomb(x, self.rho, Matrix.zero(self.module_dim, self.module_dim))

    def theta_at(self, x, y) -> Matrix:
        """theta of a general pair, by bilinearity."""
        self._check_element(x, y)
        zero = Matrix.zero(self.module_dim, self.module_dim)
        return lincomb(x, [lincomb(y, row, zero) for row in self.theta], zero)


def zero_rep(algebra_dim: int, module_dim: int, module_op: Matrix | None = None) -> Representation:
    z = Matrix.zero(module_dim, module_dim)
    return Representation(
        algebra_dim, module_dim,
        (z,) * algebra_dim,
        tuple((z,) * algebra_dim for _ in range(algebra_dim)),
        module_op)


def _op_at(acc, c, table, vecs) -> None:
    """acc += c * table(vecs...) for a multilinear map into operators on V:
    ``table`` nests one basis index per argument above sparse rows, and each
    argument is a sparse ``(index, value)`` sequence (see algebra.expand)."""
    for rows, k in expand(table, c, vecs):
        add_rows(acc, k, rows)


def _is_zero(acc) -> bool:
    return not any(any(row.values()) for row in acc)


def _rows(acc):
    """One {column: entry} dict per row as stored rows: the nonzero
    ``(column, entry)`` pairs of each, in no particular order."""
    return tuple(tuple((k, v) for k, v in row.items() if v) for row in acc)


def _integer_d(read: IntegerRead, m: int, f):
    """L^2 D(e_i, e_j) as stored rows, from the read of the binary structure
    constants and of rho and theta (its first two ``rows``) over L, and
    ``f``, the :func:`algebra.tuple_residual` reader of the read's binary
    table.  D is antisymmetric (the bracket is), so only i < j is
    computed."""
    den, n, (rho, theta, *_) = read.den, read.dim, read.rows
    zero = ((),) * m
    out = [[zero] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        acc = [{} for _ in range(m)]
        add_rows(acc, den, theta[j][i])
        add_rows(acc, -den, theta[i][j])
        _op_at(acc, -1, rho, (f(i, j).items(),))
        add_product(acc, 1, rho[i], rho[j])
        add_product(acc, -1, rho[j], rho[i])
        out[i][j] = _rows(acc)
        out[j][i] = tuple(tuple((k, -v) for k, v in row) for row in out[i][j])
    return out


@cache
def d_table(algebra: LyAlgebra, rep: Representation):
    """All D(e_i, e_j) matrices, computed once per (algebra, rep) from the
    integer read."""
    if rep.algebra_dim != algebra.dim:
        raise DimMismatch("representation is over a different algebra dimension")
    read = IntegerRead((algebra.binary,), rows=(rep.rho, rep.theta))
    m = rep.module_dim
    f = tuple_residual(read.f[0], (algebra.dim,) * 3)
    return tuple(tuple(Matrix.from_integer_rows(list(map(dict, rows)), m, read.den ** 2)
                       for rows in row)
                 for row in _integer_d(read, m, f))


def d_map(algebra: LyAlgebra, rep: Representation, i: int, j: int) -> Matrix:
    """Matrix of the derived pair map D(e_i, e_j)."""
    n = algebra.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"basis indices ({i},{j}) out of range for dim {n}")
    return d_table(algebra, rep)[i][j]


def _rep_identities(read: IntegerRead, m: int):
    """The five representation identities, then the two derived ones (the
    cyclic D identity and the D-D compatibility), as ``(name, shape,
    residual, den)`` quadruples: a residual maps a basis tuple to den times
    the operator on V of LHS - RHS, as one {column: int} dict per row, and
    is antisymmetric within the groups of its shape (see
    algebra.orbit_tuples).  ``read`` holds the structure constants and the
    rows of rho and theta on the module of dimension ``m``.

    With L the common denominator of the integer read, rho, theta and the
    structure constants are L times the exact ones and D is L^2 times, so a
    product of two of the first is at L^2 and one with D at L^3.  Each
    identity is brought to the power of L of its highest term: the terms
    one power short are multiplied by L."""
    den, n, (rho, theta) = read.den, read.dim, read.rows
    f, g = tuple_residual(read.f[0], (n,) * 3), tuple_residual(read.g[0], (n,) * 4)
    dd = _integer_d(read, m, f)
    # theta_col[a][k] = theta(e_k, e_a) and d_col[y][k] = D(e_k, e_y), so
    # that linearity in the first slot is a sum over a column
    theta_col = [[theta[k][a] for k in range(n)] for a in range(n)]
    d_col = [[dd[k][y] for k in range(n)] for y in range(n)]

    def theta_of_bracket(x, y, a):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, theta_col[a], (f(x, y).items(),))
        add_product(acc, -1, theta[x][a], rho[y])
        add_product(acc, 1, theta[y][a], rho[x])
        return acc

    def d_rho_compat(a, b, x):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], rho[x])
        add_product(acc, -1, rho[x], dd[a][b])
        _op_at(acc, -den, rho, (g(a, b, x).items(),))
        return acc

    def rho_of_bracket(x, a, b):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, theta[x], (f(a, b).items(),))
        add_product(acc, -1, rho[a], theta[x][b])
        add_product(acc, 1, rho[b], theta[x][a])
        return acc

    def d_theta_compat(a, b, x, y):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], theta[x][y])
        add_product(acc, -1, theta[x][y], dd[a][b])
        _op_at(acc, -den, theta_col[y], (g(a, b, x).items(),))
        _op_at(acc, -den, theta[x], (g(a, b, y).items(),))
        return acc

    def theta_of_ternary(a, x, y, z):
        acc = [{} for _ in range(m)]
        _op_at(acc, den, theta[a], (g(x, y, z).items(),))
        add_product(acc, -den, theta[y][z], theta[a][x])
        add_product(acc, den, theta[x][z], theta[a][y])
        add_product(acc, -1, dd[x][y], theta[a][z])
        return acc

    def d_cyclic(x, y, z):
        acc = [{} for _ in range(m)]
        _op_at(acc, 1, d_col[z], (f(x, y).items(),))
        _op_at(acc, 1, d_col[x], (f(y, z).items(),))
        _op_at(acc, 1, d_col[y], (f(z, x).items(),))
        return acc

    def d_d_compat(a, b, x, y):
        acc = [{} for _ in range(m)]
        add_product(acc, 1, dd[a][b], dd[x][y])
        add_product(acc, -1, dd[x][y], dd[a][b])
        _op_at(acc, -den, d_col[y], (g(a, b, x).items(),))
        _op_at(acc, -den, dd[x], (g(a, b, y).items(),))
        return acc

    square = den * den
    cube = square * den
    return (("theta-of-bracket", (2, 1), theta_of_bracket, square),
            ("d-rho-compat", (2, 1), d_rho_compat, cube),
            ("rho-of-bracket", (1, 2), rho_of_bracket, square),
            ("d-theta-compat", (2, 1, 1), d_theta_compat, cube),
            ("theta-of-ternary", (1, 2, 1), theta_of_ternary, cube),
            ("d-cyclic (derived)", (3,), d_cyclic, cube),
            ("d-d-compat (derived)", (2, 2), d_d_compat, cube * den))


def _operator_report(dim: int, module_dim: int, identities, derived, premise: str) -> AxiomReport:
    """One check per named ``(name, shape, residual, den)`` identity over
    the basis tuples of algebra.orbit_tuples for its shape; only a failing
    residual is divided by its den into the exact matrix the report keeps.
    When all of them pass, ``derived()`` gives ``(identity, what)`` pairs
    that are checked as well; they must follow from ``premise``, so a
    failure is a bug, raised as InternalInconsistency with its witness
    instead of being reported."""
    checks = [first_failure(name, orbit_tuples(dim, shape), fn, _is_zero,
                            lambda acc, den=den: Matrix.from_integer_rows(acc, module_dim, den))
              for name, shape, fn, den in identities]
    if all(c.passed for c in checks):
        for (name, shape, fn, _den), what in derived():
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
    *identities, cyclic, compat = _rep_identities(IntegerRead(
        (algebra.binary,), (algebra.ternary,), rows=(rep.rho, rep.theta)), rep.module_dim)
    return _operator_report(n, rep.module_dim, identities,
                            lambda: ((cyclic, "derived cyclic D identity"),
                                     (compat, "derived D-D compatibility")),
                            "the representation identities")


def _op_read(binary, op: ReynoldsOperator, rep: Representation) -> IntegerRead:
    """The integer read of T and the module operator T_V, its two maps in
    this order, the weight, rho and theta, with the series ``binary`` of
    binary structure constants (or none)."""
    return IntegerRead(binary, (), (op.matrix, rep.module_op), op.weight,
                       (rep.rho, rep.theta))


def _twisted(read: IntegerRead, table, k: int, n: int, m: int):
    """The induced map X_T(x_1..x_k) = X(Tx..) - T_V (k w X(Tx..) + sum_s
    X(Tx.. x_s ..Tx)) of the k-linear map X into operators on V given by
    ``table``, and X(Tx..) itself, as flat tables of shape (n,)*k + (m, m)
    (see algebra.twist) over the read of :func:`_op_read`: for X at L^a,
    X(Tx..) is at L^(a+k) and X_T at L^(a+k+2)."""
    shape = (n,) * k + (m, m)
    square = read.den ** 2
    a, b = twist([flat_table(table, shape)], shape,
                 [(slot, read.t_row[:1], None) for slot in range(k)])
    inner = series_lincomb((square, b), (k * read.lw, a))
    x_t, = series_lincomb((square, a), (-1, slot_product(inner, read.t_col[1:], m, m)))
    return x_t, a[0]


def _module_op_identities(read: IntegerRead, n: int, m: int):
    """The rho and theta module-operator identities as ``(name, shape,
    residual, den)`` quadruples (see :func:`_rep_identities`), and a
    function giving the derived one for D, computed only when asked for;
    over the read of :func:`_op_read` with the binary structure constants.
    Each is the whole tensor X_T(x..) T_V - L^2 T_V X(Tx..) of a k-linear
    map X into operators on V at L^a (:func:`_twisted`; a = 1 for rho and
    theta, 2 for D), at L^(a+k+3).  Only the D residual is antisymmetric,
    because D is."""
    def identity(name, shape, table, a):
        k = sum(shape)
        x_t, x_of_t = _twisted(read, table, k, n, m)
        acc, = series_lincomb((1, slot_product([x_t], read.t_row[1:], 1, m)),
                              (-read.den ** 2, slot_product([x_of_t], read.t_col[1:], m, m)))
        row = tuple_residual(acc, (n,) * k + (m, m))
        return (name, shape, lambda *args: [row(*args, r) for r in range(m)],
                read.den ** (a + k + 3))

    rho, theta = read.rows
    return ((identity("rho-module-op", (1,), rho, 1),
             identity("theta-module-op", (1, 1), theta, 1)),
            lambda: identity("d-module-op (derived)", (2,), _integer_d(
                read, m, tuple_residual(read.f[0], (n,) * 3)), 2))


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
    n, m = algebra.dim, rep.module_dim
    identities, derived = _module_op_identities(_op_read((algebra.binary,), op, rep), n, m)
    return _operator_report(n, m, identities,
                            lambda: ((derived(), "derived D module-op identity"),),
                            "the rho and theta module-op identities")


@cache
def _require_reynolds_rep(algebra: LyAlgebra, op: ReynoldsOperator | None,
                          rep: Representation) -> bool:
    """The representation layer of the input gate: the structure layer
    (L, and T when given), then the representation identities, then, with
    T and T_V, the module-operator ones (InvalidInput); V is scanned once,
    whatever the operators.  Returns whether V is the adjoint module, which
    is certified instead: its identities are LY1-LY6 and, with T_V = T, the
    Reynolds identities."""
    _require_reynolds(algebra, op)
    if op is None:
        adjoint = _is_adjoint(algebra, rep)
        if not adjoint:
            verify_rep(algebra, rep).require(InvalidInput, "representation fails verification")
        return adjoint
    adjoint = _require_reynolds_rep(algebra, None, rep)
    if rep.module_op is not None and not (adjoint and rep.module_op == op.matrix):
        verify_reynolds_rep(algebra, op, rep).require(
            InvalidInput, "module operator fails verification")
    return adjoint


def _is_adjoint(algebra: LyAlgebra, rep: Representation) -> bool:
    """Whether rho and theta are those of :func:`adjoint_rep`, read off the
    algebra's cells: V has the algebra's dimension, and the nonzero entries
    of the matrices, keyed (i, .., row, column), are :func:`_adjoint_cells`."""
    n = algebra.dim
    if (rep.algebra_dim, rep.module_dim) != (n, n):
        return False
    rho = {(i, r, c): x for i, mat in enumerate(rep.rho)
           for r, row in enumerate(mat.sparse) for c, x in row}
    theta = {(i, j, r, c): x for i, mats in enumerate(rep.theta) for j, mat in enumerate(mats)
             for r, row in enumerate(mat.sparse) for c, x in row}
    return (rho, theta) == _adjoint_cells(algebra)


def check_inputs(algebra: LyAlgebra, op: ReynoldsOperator | None,
                 rep: Representation) -> None:
    """The input gate that every entry point passes first, cached per
    input (see :func:`_require_reynolds_rep`); T_V is not required here."""
    _require_reynolds_rep(algebra, op, rep)


def adjoint_rep(algebra: LyAlgebra, op: ReynoldsOperator | None = None) -> Representation:
    """The algebra acting on itself: rho(x) z = [x,z], theta(x,y) z = {z,x,y}.

    With these choices the derived pair map satisfies D(x,y) z = {x,y,z}.
    When an operator is supplied its matrix becomes the module operator.
    """
    n = algebra.dim
    rho, theta = _adjoint_cells(algebra)
    module_op = op.matrix if op is not None else None
    return Representation(n, n, from_cells(rho, (n,) * 3), from_cells(theta, (n,) * 4),
                          module_op)


def _adjoint_cells(algebra: LyAlgebra) -> tuple[dict, dict]:
    """The nonzero entries of rho and theta of the adjoint module, keyed
    (i, row, column) and (i, j, row, column) as :func:`from_cells` reads
    them: entry (k, j) of rho(e_i) is [e_i, e_j]_k, and entry (l, k) of
    theta(e_i, e_j) is {e_k, e_i, e_j}_l."""
    return ({(i, k, j): v for (i, j, k), v in algebra.binary.entries()},
            {(i, j, l, k): v for (k, i, j, l), v in algebra.ternary.entries()})


def _intertwining_failure(op: ReynoldsOperator, source: Representation,
                          target: Representation):
    """First basis tuple at which source.X(x..) T_V != T_V target.X(Tx..),
    for T the matrix of ``op`` and T_V the module operator of ``source``:
    the elements x of X = rho come before the pairs (x, y) of X = theta.
    None when (T, T_V) intertwines both maps.

    Over one integer read of T, T_V and both representations, X_src o T_V
    and T_V o X_tgt(T.., ..T) are whole-tensor slot products (see
    algebra.slot_product) at L^2 and L^(k+2) for k arguments, compared
    whole once brought to one power of L (see algebra.first_failing_tuple)."""
    n, m = source.algebra_dim, source.module_dim
    read = IntegerRead(Tt=(op.matrix, source.module_op),
                       rows=(source.rho, source.theta, target.rho, target.theta))
    src_rho, src_theta, tgt_rho, tgt_theta = read.rows
    for k, src, tgt in ((1, src_rho, tgt_rho), (2, src_theta, tgt_theta)):
        shape = (n,) * k + (m, m)
        pulled = [flat_table(tgt, shape)]
        for slot in range(k):
            pulled = slot_product(pulled, read.t_row[:1], prod(shape[slot + 1:]), n)
        pushed = slot_product(pulled, read.t_col[1:], m, m)
        moved = slot_product([flat_table(src, shape)], read.t_row[1:], 1, m)
        bad = first_failing_tuple(series_lincomb((read.den ** k, moved), (-1, pushed))[0],
                                  (n,) * k + (m * m,))
        if bad is not None:
            return bad
    return None


@cache
def induced_rep(algebra: LyAlgebra, op: ReynoldsOperator,
                rep: Representation) -> Representation:
    """The representation of the descendant algebra carried by the same V:

        rho_T(x)    = rho(Tx)     - T_V (w rho(Tx) + rho(x))
        theta_T(x,y)= theta(Tx,Ty)- T_V (2w theta(Tx,Ty) + theta(Tx,y) + theta(x,Ty))

    Both are :func:`_twisted` over the integer read of T, the weight and
    the module operator, whole tensors at L^4 and L^5 times the exact maps,
    divided once per entry.  The output keeps the module operator.

    The result is checked, and a failure is an internal bug, not data.
    With T and T_V invertible, the module-operator identities of the input
    say rho_T(x) = T_V rho(Tx) T_V^-1 and theta_T(x, y) = T_V theta(Tx, Ty)
    T_V^-1, and :func:`reynolds.descendant_algebra` certifies L_T as the
    transport of L along T.  The built maps are checked to satisfy those
    two identities (:func:`_intertwining_failure`); the representation
    identities over L_T and the module-operator ones against T then follow
    from the input's over L.  With T or T_V singular, both verifiers are
    run on the output over the descendant algebra instead.
    """
    check_inputs(algebra, op, rep)
    if rep.module_op is None:
        raise MissingModuleOp("representation has no module operator")
    n, m = algebra.dim, rep.module_dim
    read = _op_read((), op, rep)

    def matrices(table, k):
        row = tuple_residual(_twisted(read, table, k, n, m)[0], (n,) * k + (m, m))
        return _view(tuple(Matrix.from_integer_rows([row(*idx, r) for r in range(m)], m,
                                                     read.den ** (k + 3))
                           for idx in product(range(n), repeat=k)), (n,) * k)

    rho, theta = read.rows
    out = Representation(n, m, matrices(rho, 1), matrices(theta, 2), rep.module_op)
    # the certificate rests on L_T being the transport of L, which this
    # certifies when T is invertible
    descendant = descendant_algebra(algebra, op)
    if rank(op.matrix) == n and rank(rep.module_op) == m:
        bad = _intertwining_failure(op, out, rep)
        if bad is not None:
            raise InternalInconsistency(
                f"induced {('rho', 'theta')[len(bad) - 1]} fails to intertwine with "
                f"(T, T_V) at ({','.join(map(str, bad))})")
        return out
    verify_rep(descendant, out).require(
        InternalInconsistency,
        "induced maps fail the representation identities over the descendant algebra")
    verify_reynolds_rep(descendant, op, out).require(
        InternalInconsistency, "induced representation loses module-operator compatibility")
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
