"""Reynolds operators of arbitrary weight on Lie-Yamaguti algebras.

A Reynolds operator of weight w is a linear self-map T with

    [Tx, Ty]     = T([Tx,y] + [x,Ty] + w [Tx,Ty])
    {Tx, Ty, Tz} = T({x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz})

Weight 0 recovers Rota-Baxter operators; the identity map has weight -1.
Matrices act on coordinate columns: T e_j = sum_i matrix[i, j] e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .algebra import (
    LyAlgebra,
    _axiom_report,
    _morphism_failure,
    common_denominator,
    contract,
    dense_vector,
    integer_rows,
    integer_table,
    sparse_table,
    verify_ly_axioms,
)
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidReynolds,
    NotDerivation,
    ZeroScale,
)
from .linalg import Matrix, add_scaled, inverse
from .reporting import AxiomReport


@dataclass(frozen=True)
class ReynoldsOperator:
    matrix: Matrix
    weight: Fraction

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimMismatch("operator matrix must be square")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, v):
        return self.matrix.apply(v)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _reynolds_identities(F, G, Tt, w, n: int):
    """The weighted binary and ternary operator identities at order ``n`` of
    the series F (binary tensors), G (ternary tensors) and Tt (operator
    matrices), as ``(shape, residual, den)`` triples (see
    algebra._axiom_report): both are antisymmetric in their first two slots.

    Each residual is the order-n coefficient of LHS - RHS: the products are
    summed over three-part (plus one weighted four-part) and four-part (plus
    one five-part) splittings of n.  Order 0 of ``((binary,), (ternary,),
    (T,))`` is the undeformed operator.  The images T_k e_x are sparse
    columns, every product is a :func:`contract` over nonzero structure
    constants, and each T_i is applied once per residual, to the sum of the
    terms it acts on.
    """
    dim = len(F[0])
    # every coefficient up to order n and the weight, times their common
    # denominator L, is an integer.  Each term is brought to one power of L
    # by its coefficient: L^2 on the terms with two factors fewer than the
    # weighted one, whose coefficient L w is an integer.  The binary residual
    # is then L^5 and the ternary one L^6 times the exact residual.
    den = lcm(common_denominator(F[:n + 1], 3), common_denominator(G[:n + 1], 4),
              *(v.denominator for t in Tt[:n + 1] for row in t.sparse for _, v in row),
              w.denominator)
    square, lw = den * den, (w * den).numerator
    f = [integer_table(t, 2, den) for t in F[:n + 1]]
    g = [integer_table(t, 3, den) for t in G[:n + 1]]
    # t_col[k][x] = T_k e_x: each T_k as a table of its columns
    t_col = [integer_rows(t.transpose().sparse, den) for t in Tt[:n + 1]]
    unit = [((x, 1),) for x in range(dim)]
    comps3, comps4, comps5 = (list(_compositions(n, parts)) for parts in (3, 4, 5))

    def minus_ts(acc, inner):
        """acc - sum_i T_i(inner[i]): one application of each T_i."""
        for i, v in enumerate(inner):
            contract(acc, -1, t_col[i], (v.items(),))
        return acc

    def image(table, vecs):
        out = {}
        contract(out, 1, table, vecs)
        return tuple(out.items())

    def binary(x, y):
        # F_j(T_k x, T_l y) for every j + k + l <= n, each computed once
        all_t = {(j, k, l): image(f[j], (t_col[k][x], t_col[l][y]))
                 for (_, j, k, l) in comps4}
        acc = {}
        inner = [{} for _ in range(n + 1)]
        for (i, j, k) in comps3:
            add_scaled(acc, square, all_t[i, j, k])
            contract(inner[i], square, f[j], (t_col[k][x], unit[y]))
            contract(inner[i], square, f[j][x], (t_col[k][y],))
        for (i, j, k, l) in comps4:
            add_scaled(inner[i], lw, all_t[j, k, l])
        return minus_ts(acc, inner)

    def ternary(x, y, z):
        # G_j(T_k x, T_l y, T_m z) for every j + k + l + m <= n, each once
        all_t = {(j, k, l, m): image(g[j], (t_col[k][x], t_col[l][y], t_col[m][z]))
                 for (_, j, k, l, m) in comps5}
        acc = {}
        inner = [{} for _ in range(n + 1)]
        for (i, j, k, l) in comps4:
            add_scaled(acc, square, all_t[i, j, k, l])
            contract(inner[i], square, g[j][x], (t_col[k][y], t_col[l][z]))
            contract(inner[i], square, g[j], (t_col[k][x], unit[y], t_col[l][z]))
            contract(inner[i], square, g[j], (t_col[k][x], t_col[l][y], unit[z]))
        for (i, j, k, l, m) in comps5:
            add_scaled(inner[i], 2 * lw, all_t[j, k, l, m])
        return minus_ts(acc, inner)

    return (((2,), binary, den ** 5), ((2, 1), ternary, den ** 6))


def verify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> AxiomReport:
    """Check the weighted binary identity on basis pairs and the weighted
    ternary identity on basis triples, one per orbit of the swap of the
    first two slots (see algebra.orbit_tuples)."""
    if op.dim != algebra.dim:
        raise DimMismatch("operator side != algebra dim")
    return _axiom_report(("reynolds-binary", "reynolds-ternary"),
                         _reynolds_identities((algebra.binary,), (algebra.ternary,),
                                              (op.matrix,), op.weight, 0),
                         algebra.dim)


@cache
def _require_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> None:
    report = verify_reynolds(algebra, op)
    if not report.ok:
        raise InvalidReynolds(report.describe())


def scale_weight(op: ReynoldsOperator, c) -> ReynoldsOperator:
    """(T, w) -> (c T, w / c): rescaling trades weight against the operator."""
    c = Fraction(c)
    if c == 0:
        raise ZeroScale("cannot rescale an operator by zero")
    return ReynoldsOperator(op.matrix.scale(c), op.weight / c)


@cache
def descendant_algebra(algebra: LyAlgebra, op: ReynoldsOperator) -> LyAlgebra:
    """The algebra L_T on the same space with the operator-deformed brackets

        [x,y]_T   = [Tx,y] + [x,Ty] + w [Tx,Ty]
        {x,y,z}_T = {x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz}

    The brackets are accumulated over integer tables: the structure
    constants, the columns of T and the weight are read over their common
    denominator L, the binary bracket is brought to L^4 and the ternary one
    to L^5 (the scale of their weighted terms), and each entry is divided
    back once.  The construction re-validates everything it is supposed to
    satisfy: the result is again a Lie-Yamaguti algebra, T is again a
    Reynolds operator of the same weight on it, and T: L_T -> L is a
    morphism of both brackets.  A failure of any of these is an internal
    bug, not data.
    """
    _require_reynolds(algebra, op)
    n = algebra.dim
    T = op.matrix
    den = lcm(common_denominator(algebra.binary, 2), common_denominator(algebra.ternary, 3),
              *(v.denominator for row in T.sparse for _, v in row), op.weight.denominator)
    square, lw = den * den, (op.weight * den).numerator
    b = integer_table(algebra.binary, 2, den)
    t = integer_table(algebra.ternary, 3, den)
    t_col = integer_rows(T.transpose().sparse, den)
    unit = [((x, 1),) for x in range(n)]

    def binary_at(i, j):
        acc = {}
        contract(acc, square, b, (t_col[i], unit[j]))
        contract(acc, square, b[i], (t_col[j],))
        contract(acc, lw, b, (t_col[i], t_col[j]))
        return dense_vector(acc, n, square * square)

    def ternary_at(i, j, k):
        acc = {}
        contract(acc, square, t[i], (t_col[j], t_col[k]))
        contract(acc, square, t, (t_col[i], unit[j], t_col[k]))
        contract(acc, square, t, (t_col[i], t_col[j], unit[k]))
        contract(acc, 2 * lw, t, (t_col[i], t_col[j], t_col[k]))
        return dense_vector(acc, n, square * square * den)

    binary = tuple(tuple(binary_at(i, j) for j in range(n)) for i in range(n))
    ternary = tuple(
        tuple(tuple(ternary_at(i, j, k) for k in range(n)) for j in range(n))
        for i in range(n))

    descendant = LyAlgebra(n, binary, ternary, algebra.labels)
    axioms = verify_ly_axioms(descendant)
    if not axioms.ok:
        raise InternalInconsistency(
            "descendant brackets fail the Lie-Yamaguti axioms:\n" + axioms.describe())
    again = verify_reynolds(descendant, op)
    if not again.ok:
        raise InternalInconsistency(
            "operator is not Reynolds on its own descendant:\n" + again.describe())
    bad = _morphism_failure(T, descendant, algebra)
    if bad is not None:
        kind = "binary" if len(bad) == 2 else "ternary"
        raise InternalInconsistency(
            f"T fails to be a {kind} morphism at ({','.join(map(str, bad))})")
    return descendant


def _derivation_identities(algebra: LyAlgebra, dm: Matrix):
    """The Leibniz rule of dm over the binary and the ternary bracket, as
    ``(shape, residual, den)`` triples (see algebra._axiom_report): both are
    antisymmetric in their first two slots."""
    n = algebra.dim
    b = sparse_table(algebra.binary, 2)
    t = sparse_table(algebra.ternary, 3)
    # d_col[x] = D e_x: D as a table of its columns
    d_col = dm.transpose().sparse
    unit = [((x, 1),) for x in range(n)]

    def binary(i, j):
        acc = {}
        contract(acc, 1, d_col, (b[i][j],))
        contract(acc, -1, b, (d_col[i], unit[j]))
        contract(acc, -1, b[i], (d_col[j],))
        return acc

    def ternary(i, j, k):
        acc = {}
        contract(acc, 1, d_col, (t[i][j][k],))
        contract(acc, -1, t, (d_col[i], unit[j], unit[k]))
        contract(acc, -1, t[i], (d_col[j], unit[k]))
        contract(acc, -1, t[i][j], (d_col[k],))
        return acc

    return ((2,), binary, 1), ((2, 1), ternary, 1)


def derivation_check(algebra: LyAlgebra, dm: Matrix) -> AxiomReport:
    """Leibniz rule of dm over both brackets, on basis tuples increasing in
    their first two slots (see algebra.orbit_tuples)."""
    if dm.rows != algebra.dim or dm.cols != algebra.dim:
        raise DimMismatch("derivation matrix side != algebra dim")
    return _axiom_report(("derivation-binary", "derivation-ternary"),
                         _derivation_identities(algebra, dm), algebra.dim)


def reynolds_from_derivation(algebra: LyAlgebra, dm: Matrix, weight) -> ReynoldsOperator:
    """Operator T = (D - weight Id)^{-1} built from a derivation D.

    The inverse exists only when D - weight Id is regular (SingularMatrix
    otherwise).  T is then a Reynolds operator of that weight: with u = Tx
    and v = Ty, the binary right-hand side is T([u, (D - w)v] + [(D - w)u, v]
    + w[u, v]) = T((D - w)[u, v]) = [u, v], and the ternary one gives
    T((D - w){u, v, s}) likewise.  Weight 0 gives the Rota-Baxter operator
    D^{-1}.  The output is re-validated anyway; a failure is an internal bug.
    """
    report = derivation_check(algebra, dm)
    if not report.ok:
        raise NotDerivation(report.describe())
    weight = Fraction(weight)
    shifted = dm - Matrix.identity(algebra.dim).scale(weight)
    t = inverse(shifted)  # raises SingularMatrix
    op = ReynoldsOperator(t, weight)
    check = verify_reynolds(algebra, op)
    if not check.ok:
        raise InternalInconsistency(
            "derivation-built operator fails the weighted identities:\n" + check.describe())
    return op
