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

(rho, theta) is a representation exactly when the semidirect total
L (+) V (:func:`semidirect_cells`, on which the extensions build theirs
too) is a Lie-Yamaguti algebra, and T_V a module operator exactly when
T (+) T_V is Reynolds on it (Yamaguti).  So the verifiers write no
identity of their own: they read each one off LY4-LY6 or the Reynolds
identities of the total, at the tuples with one module argument.

The builders take one integer read (``algebra.IntegerRead``) per call of
what they need among the structure constants, rho, theta, T, the module
operator and the weight, over one common denominator L, and accumulate
ints: every term of a built entry is brought to one power of L, and each
entry is divided back once.  The induced maps X_T of X = rho and theta
(``_twisted``) come from the twist kernel of the descendant brackets
(``algebra.twist``), as whole tensors in a mixed radix
(``algebra.flat_table``), and the module-operator identities are
X_T(x..) T_V = T_V X(Tx..).

Those identities say that the induced maps are the transport of (rho,
theta) along (T, T_V).  So when T and T_V are invertible the induced
representation is certified by that transport (:func:`induced_rep`): one
whole-tensor check that the built maps intertwine with (rho, theta), in
place of the two verifiers over the descendant, which a singular T or T_V
still gets.

The representation layer of the input gate (:func:`check_inputs`) is here
too; it certifies an adjoint module by LY1-LY6 and the Reynolds identities
instead of verifying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product
from math import prod

from .algebra import (
    IntegerRead,
    LyAlgebra,
    Tensor,
    _ly_identities,
    first_failing_tuple,
    flat_table,
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
    digits,
    from_cells,
    rank,
)
from .reporting import AxiomReport, Check
from .reynolds import (
    ReynoldsOperator,
    _require_reynolds,
    _reynolds_identities,
    descendant_algebra,
)


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


def zero_rep(algebra_dim: int, module_dim: int, module_op: Matrix | None = None) -> Representation:
    z = Matrix.zero(module_dim, module_dim)
    return Representation(
        algebra_dim, module_dim,
        (z,) * algebra_dim,
        tuple((z,) * algebra_dim for _ in range(algebra_dim)),
        module_op)


@cache
def d_table(algebra: LyAlgebra, rep: Representation):
    """All D(e_i, e_j) matrices, computed once per (algebra, rep) from the
    integer read of the binary structure constants, rho and theta over L:
    each is accumulated as L^2 D(e_i, e_j) in ints and divided back once.
    D is antisymmetric (the bracket is), so only i < j is computed."""
    if rep.algebra_dim != algebra.dim:
        raise DimMismatch("representation is over a different algebra dimension")
    read = IntegerRead((algebra.binary,), rows=(rep.rho, rep.theta))
    den, n, m, (rho, theta) = read.den, algebra.dim, rep.module_dim, read.rows
    f = tuple_residual(read.f[0], (n,) * 3)
    out = [[Matrix.zero(m, m)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        acc = [{} for _ in range(m)]
        add_rows(acc, den, theta[j][i])
        add_rows(acc, -den, theta[i][j])
        for k, c in f(i, j).items():
            add_rows(acc, -c, rho[k])
        add_product(acc, 1, rho[i], rho[j])
        add_product(acc, -1, rho[j], rho[i])
        out[i][j] = Matrix.from_integer_rows(acc, m, den ** 2)
        out[j][i] = Matrix.from_integer_rows([{k: -v for k, v in row.items()} for row in acc],
                                             m, den ** 2)
    return tuple(map(tuple, out))


def d_map(algebra: LyAlgebra, rep: Representation, i: int, j: int) -> Matrix:
    """Matrix of the derived pair map D(e_i, e_j)."""
    n = algebra.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"basis indices ({i},{j}) out of range for dim {n}")
    return d_table(algebra, rep)[i][j]


def semidirect_cells(algebra: LyAlgebra, rep: Representation) -> tuple[dict, dict]:
    """The nonzero cells of the brackets of the semidirect total L (+) V,
    keyed (i, j, k) and (i, j, k, l) as :func:`algebra.binary_from_sparse`
    and :func:`algebra.ternary_from_sparse` read them, module index a at
    n + a:

        [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u
        {x+u,y+v,z+w}   = {x,y,z} + theta(y,z)u - theta(x,z)v + D(x,y)w

    The blocks [L,L] and {L,L,L} are the base, [L,V] and [V,L] rho,
    {L,L,V} D, and {V,L,L} and {L,V,L} theta; both antisymmetric images of
    each cell are written, D being antisymmetric.  V is an abelian ideal:
    no cell has two module arguments, and a cell with one has a module
    output."""
    n = algebra.dim
    dd = d_table(algebra, rep)
    binary = dict(algebra.binary.entries())
    ternary = dict(algebra.ternary.entries())
    # column a of a block is row a of its transpose, read as nonzero pairs
    for i in range(n):
        for a, col in enumerate(rep.rho[i].transpose().sparse):
            for k, c in col:
                binary[i, n + a, n + k], binary[n + a, i, n + k] = c, -c
        for j in range(n):
            for a, col in enumerate(dd[i][j].transpose().sparse):
                for k, c in col:
                    ternary[i, j, n + a, n + k] = c
            for a, col in enumerate(rep.theta[i][j].transpose().sparse):
                for k, c in col:
                    ternary[n + a, i, j, n + k], ternary[i, n + a, j, n + k] = c, -c
    return binary, ternary


def _semidirect_read(algebra: LyAlgebra, rep: Representation, *operator) -> IntegerRead:
    """The integer read of the semidirect total, and of ``operator``, the
    operator matrix on it and its weight, when given.  The cells are
    antisymmetric as written, and certified so."""
    big = algebra.dim + rep.module_dim
    binary, ternary = semidirect_cells(algebra, rep)
    return IntegerRead((Tensor.of_indices(binary, big, 2, big, antisymmetric=True),),
                       (Tensor.of_indices(ternary, big, 3, big, antisymmetric=True),),
                       *operator)


def _module_report(n: int, m: int, identities, derived, premise: str) -> AxiomReport:
    """One check per named ``(name, (depth, acc, den), slot, sign)``
    identity of V: ``sign`` times the battery identity of the total (see
    algebra._axiom_report) with the module argument in ``slot``.  Each term
    with two module arguments has a zero cell (see :func:`semidirect_cells`),
    so the other arguments are algebra indices.  The residual at their
    tuple, in order, is the operator on V whose column is the module index
    and whose row is the output coordinate; the witness is the least
    failing such tuple.  When all of them pass, the ``derived`` ones, each
    with a ``what`` text last, are checked as well; they must follow from
    ``premise``, so a failure is a bug, raised as InternalInconsistency
    with its witness instead of being reported."""
    def check(name, identity, slot, sign):
        depth, acc, den = identity
        cells = {}
        for p, v in acc.items():
            if v:
                *args, out = digits(p, (n + m,) * (depth + 1))
                u = args.pop(slot)
                if u >= n:
                    cells[tuple(args), out - n, u - n] = sign * v
        if not cells:
            return Check(name, True)
        bad = min(cells)[0]
        return Check(name, False, bad, Matrix.from_integer_rows(
            [{c: v for (args, r, c), v in cells.items() if (args, r) == (bad, row)}
             for row in range(m)], m, den))

    checks = [check(*named) for named in identities]
    if all(c.passed for c in checks):
        for *named, what in derived:
            checks.append(check(*named))
            if not checks[-1].passed:
                raise InternalInconsistency(
                    f"{what} fails at ({','.join(map(str, checks[-1].witness))}) although "
                    f"{premise} hold")
    return AxiomReport(tuple(checks))


def verify_rep(algebra: LyAlgebra, rep: Representation) -> AxiomReport:
    """Check the five representation identities on LY4-LY6 of the
    semidirect total (see the module docstring, and :func:`_module_report`).

    Expanding the total's brackets with one argument u in V makes each
    identity of the battery (algebra._ly_identities) at a basis tuple with
    u in one slot a representation identity applied to u, times a sign:

        theta-of-bracket  -LY4 (x, y, u, a)    d-rho-compat    LY5 (a, b, x, u)
        rho-of-bracket    -LY5 (x, u, a, b)    d-theta-compat  -LY6 (a, b, x, u, y)
        theta-of-ternary  -LY6 (a, u, x, y, z)

    The battery is written on the tuples increasing within its groups of
    slots, and u, past every algebra index, keeps those of the identity.
    LY1 and LY2 hold on the total by construction, and LY3 with u is the
    definition of D.  When all five pass, the two derived identities,
    d-cyclic = LY4 (x, y, z, u) and d-d-compat = LY6 (a, b, x, y, u), are
    checked as well; those must follow, so a failure raises
    InternalInconsistency instead of being reported as data.
    """
    n = algebra.dim
    if rep.algebra_dim != n:
        raise DimMismatch("representation is over a different algebra dimension")
    *_, ly4, ly5, ly6 = _ly_identities(_semidirect_read(algebra, rep))[0]
    return _module_report(
        n, rep.module_dim,
        (("theta-of-bracket", ly4, 2, -1), ("d-rho-compat", ly5, 3, 1),
         ("rho-of-bracket", ly5, 1, -1), ("d-theta-compat", ly6, 3, -1),
         ("theta-of-ternary", ly6, 1, -1)),
        (("d-cyclic (derived)", ly4, 3, 1, "derived cyclic D identity"),
         ("d-d-compat (derived)", ly6, 4, 1, "derived D-D compatibility")),
        "the representation identities")


def verify_reynolds_rep(algebra: LyAlgebra, op: ReynoldsOperator,
                        rep: Representation) -> AxiomReport:
    """Check the module-operator identities on the Reynolds identities of
    T (+) T_V, at the weight of ``op``, on the semidirect total
    (reynolds._reynolds_identities), read as in :func:`verify_rep`:

        rho-module-op  reynolds-binary (x, u)   theta-module-op  reynolds-ternary (u, x, y)

    The derived identity for the pair map D, reynolds-ternary (x, y, u),
    must follow whenever the two primary ones hold; if it does not,
    InternalInconsistency is raised.
    """
    if rep.module_op is None:
        raise MissingModuleOp("representation has no module operator")
    if op.dim != algebra.dim or rep.algebra_dim != algebra.dim:
        raise DimMismatch("dimensions do not line up")
    binary, ternary = _reynolds_identities(_semidirect_read(
        algebra, rep, (block_diag((op.matrix, rep.module_op)),), op.weight))[0]
    return _module_report(
        algebra.dim, rep.module_dim,
        (("rho-module-op", binary, 1, 1), ("theta-module-op", ternary, 0, 1)),
        (("d-module-op (derived)", ternary, 2, 1, "derived D module-op identity"),),
        "the rho and theta module-op identities")


def _twisted(read: IntegerRead, table, k: int, n: int, m: int) -> dict:
    """The induced map X_T(x_1..x_k) = X(Tx..) - T_V (k w X(Tx..) + sum_s
    X(Tx.. x_s ..Tx)) of the k-linear map X into operators on V given by
    ``table``, as a flat table of shape (n,)*k + (m, m) (see algebra.twist)
    over the integer read of T and T_V, the weight, rho and theta: for X at
    L^a, X_T is at L^(a+k+2)."""
    shape = (n,) * k + (m, m)
    square = read.den ** 2
    a, b = twist([flat_table(table, shape)], shape,
                 [(slot, read.t_row[:1], None) for slot in range(k)])
    inner = series_lincomb((square, b), (k * read.lw, a))
    return series_lincomb((square, a), (-1, slot_product(inner, read.t_col[1:], m, m)))[0]


@cache
def _require_reynolds_rep(algebra: LyAlgebra, op: ReynoldsOperator | None,
                          rep: Representation) -> bool:
    """The representation layer of the input gate: the structure layer
    (L, and T when given), then the representation identities, then, with
    T and T_V, the module-operator ones (InvalidInput); V is verified once,
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
    read = IntegerRead(Tt=(op.matrix, rep.module_op), weight=op.weight,
                       rows=(rep.rho, rep.theta))

    def matrices(table, k):
        row = tuple_residual(_twisted(read, table, k, n, m), (n,) * k + (m, m))
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
