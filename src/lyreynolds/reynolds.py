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
from itertools import product

from .algebra import LyAlgebra, bracket2, bracket3, verify_ly_axioms
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidReynolds,
    NotDerivation,
    ZeroScale,
)
from .linalg import Matrix, inverse, is_zero_vector, vec_add, vec_scale, vec_sub
from .reporting import AxiomReport, first_failure


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


def verify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> AxiomReport:
    """Check the weighted binary identity on all basis pairs and the weighted
    ternary identity on all basis triples."""
    if op.dim != algebra.dim:
        raise DimMismatch("operator side != algebra dim")
    n = algebra.dim
    w = op.weight
    T = op.matrix
    t_img = [T.apply(algebra.basis(i)) for i in range(n)]

    def binary(i, j):
        lhs = bracket2(algebra, t_img[i], t_img[j])
        inner = vec_add(
            vec_add(bracket2(algebra, t_img[i], algebra.basis(j)),
                    bracket2(algebra, algebra.basis(i), t_img[j])),
            vec_scale(w, lhs))
        return vec_sub(lhs, T.apply(inner))

    def ternary(i, j, k):
        lhs = bracket3(algebra, t_img[i], t_img[j], t_img[k])
        inner = bracket3(algebra, algebra.basis(i), t_img[j], t_img[k])
        inner = vec_add(inner, bracket3(algebra, t_img[i], algebra.basis(j), t_img[k]))
        inner = vec_add(inner, bracket3(algebra, t_img[i], t_img[j], algebra.basis(k)))
        inner = vec_add(inner, vec_scale(2 * w, lhs))
        return vec_sub(lhs, T.apply(inner))

    return AxiomReport((
        first_failure("reynolds-binary", product(range(n), repeat=2), binary,
                      is_zero_vector),
        first_failure("reynolds-ternary", product(range(n), repeat=3), ternary,
                      is_zero_vector)))


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
    for i, j in product(range(n), repeat=2):
        if T.apply(binary[i][j]) != bracket2(algebra, t_img[i], t_img[j]):
            raise InternalInconsistency(f"T fails to be a binary morphism at ({i},{j})")
    for i, j, k in product(range(n), repeat=3):
        if T.apply(ternary[i][j][k]) != bracket3(algebra, t_img[i], t_img[j], t_img[k]):
            raise InternalInconsistency(f"T fails to be a ternary morphism at ({i},{j},{k})")
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

    return AxiomReport((
        first_failure("derivation-binary", product(range(n), repeat=2), binary,
                      is_zero_vector),
        first_failure("derivation-ternary", product(range(n), repeat=3), ternary,
                      is_zero_vector)))


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
