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

from .algebra import (
    LyAlgebra,
    _axiom_report,
    _morphism_failure,
    apply_binary,
    apply_ternary,
    bracket2,
    bracket3,
    verify_ly_axioms,
)
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidReynolds,
    NotDerivation,
    ZeroScale,
)
from .linalg import (
    Matrix,
    inverse,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
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


def verify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> AxiomReport:
    """Check the weighted binary identity on all basis pairs and the weighted
    ternary identity on all basis triples."""
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

    The construction re-validates everything it is supposed to satisfy:
    the result is again a Lie-Yamaguti algebra, T is again a Reynolds
    operator of the same weight on it, and T: L_T -> L is a morphism of
    both brackets.  A failure of any of these is an internal bug, not data.
    """
    _require_reynolds(algebra, op)
    n = algebra.dim
    w = op.weight
    T = op.matrix
    t_img = [T.apply(algebra.basis(i)) for i in range(n)]
    unit = algebra.basis

    binary = tuple(
        tuple(
            vec_add(
                vec_add(bracket2(algebra, t_img[i], unit(j)),
                        bracket2(algebra, unit(i), t_img[j])),
                vec_scale(w, bracket2(algebra, t_img[i], t_img[j])))
            for j in range(n))
        for i in range(n))
    ternary = tuple(
        tuple(
            tuple(
                vec_add(
                    vec_add(
                        vec_add(bracket3(algebra, unit(i), t_img[j], t_img[k]),
                                bracket3(algebra, t_img[i], unit(j), t_img[k])),
                        bracket3(algebra, t_img[i], t_img[j], unit(k))),
                    vec_scale(2 * w, bracket3(algebra, t_img[i], t_img[j], t_img[k])))
                for k in range(n))
            for j in range(n))
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


def derivation_check(algebra: LyAlgebra, dm: Matrix) -> AxiomReport:
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


def reynolds_from_derivation(algebra: LyAlgebra, dm: Matrix, weight) -> ReynoldsOperator:
    """Operator (D - weight/2 Id)^{-1} built from a derivation D.

    The inverse exists only when D - weight/2 Id is regular (SingularMatrix
    otherwise).  The output is re-validated rather than trusted: at weight 0
    it always yields a Rota-Baxter operator, but at nonzero weight the
    claimed identities can fail on algebras with nonzero brackets, and then
    InvalidReynolds carries the witness.
    """
    report = derivation_check(algebra, dm)
    if not report.ok:
        raise NotDerivation(report.describe())
    weight = Fraction(weight)
    shifted = dm - Matrix.identity(algebra.dim).scale(weight / 2)
    t = inverse(shifted)  # raises SingularMatrix
    op = ReynoldsOperator(t, weight)
    check = verify_reynolds(algebra, op)
    if not check.ok:
        raise InvalidReynolds(
            "derivation-built operator fails the weighted identities:\n" + check.describe())
    return op
